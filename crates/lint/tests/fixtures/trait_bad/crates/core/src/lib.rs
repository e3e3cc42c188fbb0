#![forbid(unsafe_code)]

pub struct Good;
pub struct Bad;

impl Policy for Good {}
impl Snapshot for Good {}

impl Policy for Bad {}
