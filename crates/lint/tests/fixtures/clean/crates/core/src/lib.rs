#![forbid(unsafe_code)]

pub struct Cache;

impl Policy for Cache {}
impl Snapshot for Cache {}

pub fn capacity(n: u64) -> u64 {
    n.checked_mul(2).expect("capacity fits in u64")
}
