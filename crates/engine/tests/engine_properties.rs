//! Property tests for the engine substrates: the pending store against a
//! naive reference model, and the stable-assignment laws.

use proptest::prelude::*;
use rrs_engine::{recolor_reconfigs, stable_assign, PendingStore, Slot};
use rrs_model::{ColorId, SnapReader, SnapWriter};

/// Operations against the pending store.
#[derive(Clone, Debug)]
enum Op {
    Arrive {
        color: u8,
        count: u8,
    },
    Execute {
        color: u8,
        slots: u8,
    },
    /// Advance `rounds` rounds at once, then drop: several deadlines fall
    /// due in one `drop_due`, and one color may hold several due entries.
    Advance {
        rounds: u8,
    },
    /// Round-trip the store through its snapshot codec, which rebuilds the
    /// deadline heap without the live store's stale entries.
    Reload,
}

const COLORS: u8 = 4;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..COLORS, 1u8..6).prop_map(|(color, count)| Op::Arrive { color, count }),
        (0u8..COLORS, 1u8..4).prop_map(|(color, slots)| Op::Execute { color, slots }),
        Just(Op::Advance { rounds: 1 }),
        (2u8..8).prop_map(|rounds| Op::Advance { rounds }),
        Just(Op::Reload),
    ]
}

/// Naive reference: an explicit bag of (color, deadline) jobs.
#[derive(Default)]
struct RefModel {
    jobs: Vec<(u8, u64)>,
}

impl RefModel {
    fn arrive(&mut self, color: u8, deadline: u64, count: u8) {
        for _ in 0..count {
            self.jobs.push((color, deadline));
        }
    }
    /// The `(color, dropped)` pairs of the jobs due by `round`, in
    /// ascending color order.
    fn drop_due(&mut self, round: u64) -> Vec<(ColorId, u64)> {
        let mut per_color = [0u64; COLORS as usize];
        self.jobs.retain(|&(c, d)| {
            if d <= round {
                per_color[c as usize] += 1;
            }
            d > round
        });
        (0..COLORS)
            .filter(|&c| per_color[c as usize] > 0)
            .map(|c| (ColorId(c as u32), per_color[c as usize]))
            .collect()
    }
    fn execute(&mut self, color: u8, slots: u8) -> u64 {
        let mut executed = 0;
        for _ in 0..slots {
            // Earliest-deadline job of this color.
            let best = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, &(c, _))| c == color)
                .min_by_key(|(_, &(_, d))| d)
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    self.jobs.swap_remove(i);
                    executed += 1;
                }
                None => break,
            }
        }
        executed
    }
    fn count(&self, color: u8) -> u64 {
        self.jobs.iter().filter(|&&(c, _)| c == color).count() as u64
    }
}

fn snapshot_bytes(store: &PendingStore) -> Vec<u8> {
    let mut w = SnapWriter::new();
    store.save_state(&mut w);
    w.finish()
}

fn reload(store: &PendingStore) -> PendingStore {
    let bytes = snapshot_bytes(store);
    let mut r = SnapReader::new(&bytes).unwrap();
    PendingStore::load_state(&mut r).unwrap()
}

proptest! {
    // Enough cases that a stale entry left before a `Reload` reaches the
    // heap top in some later drop.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The store against the bag model, with a delay bound per color. Once
    /// a `Reload` has happened, a reloaded copy takes every later op too,
    /// and both must keep identical snapshot bytes: `min_due` (which the
    /// snapshot records) stays exact although only the live store's heap
    /// holds stale entries.
    #[test]
    fn pending_store_matches_reference_model(
        bounds in prop::collection::vec(1u64..6, COLORS as usize),
        ops in prop::collection::vec(op_strategy(), 0..80),
    ) {
        let mut store = PendingStore::new();
        let mut reloaded: Option<PendingStore> = None;
        let mut model = RefModel::default();
        let mut round = 0u64;

        for op in ops {
            match op {
                Op::Arrive { color, count } => {
                    let c = ColorId(color as u32);
                    let deadline = round + bounds[color as usize];
                    store.arrive(c, deadline, count as u64);
                    if let Some(r) = reloaded.as_mut() {
                        r.arrive(c, deadline, count as u64);
                    }
                    model.arrive(color, deadline, count);
                }
                Op::Execute { color, slots } => {
                    let c = ColorId(color as u32);
                    let a = store.execute(c, slots as u64);
                    if let Some(r) = reloaded.as_mut() {
                        prop_assert_eq!(r.execute(c, slots as u64), a);
                    }
                    let b = model.execute(color, slots);
                    prop_assert_eq!(a, b, "execute mismatch at round {}", round);
                }
                Op::Advance { rounds } => {
                    round += rounds as u64;
                    let mut buf = Vec::new();
                    let a = store.drop_due(round, &mut buf);
                    let expected = model.drop_due(round);
                    prop_assert_eq!(&buf, &expected, "drop pairs at round {}", round);
                    let buf_total: u64 = buf.iter().map(|&(_, n)| n).sum();
                    prop_assert_eq!(buf_total, a);
                    if let Some(r) = reloaded.as_mut() {
                        let mut rbuf = Vec::new();
                        prop_assert_eq!(r.drop_due(round, &mut rbuf), a);
                        prop_assert_eq!(&rbuf, &buf);
                    }
                }
                Op::Reload => reloaded = Some(reload(&store)),
            }
            for c in 0..COLORS {
                prop_assert_eq!(
                    store.count(ColorId(c as u32)),
                    model.count(c),
                    "count mismatch for color {} at round {}", c, round
                );
            }
            let total: u64 = (0..COLORS).map(|c| model.count(c)).sum();
            prop_assert_eq!(store.total(), total);
            if let Some(r) = &reloaded {
                prop_assert_eq!(snapshot_bytes(r), snapshot_bytes(&store), "round {}", round);
                prop_assert!(*r == store);
            }
        }
    }

    #[test]
    fn stable_assign_satisfies_its_contract(
        old_raw in prop::collection::vec(prop::option::of(0u32..5), 1..10),
        desired_raw in prop::collection::vec((0u32..5, 0u64..3), 0..5),
    ) {
        let old: Vec<Slot> = old_raw.iter().map(|o| o.map(ColorId)).collect();
        // Dedup colors and cap total copies at capacity.
        let mut desired: Vec<(ColorId, u64)> = Vec::new();
        let mut total = 0u64;
        for (c, k) in desired_raw {
            if desired.iter().any(|&(dc, _)| dc == ColorId(c)) {
                continue;
            }
            let k = k.min(old.len() as u64 - total);
            desired.push((ColorId(c), k));
            total += k;
        }

        let new = stable_assign(&old, &desired);
        prop_assert_eq!(new.len(), old.len());

        // Exactly the desired multiset is placed.
        for &(c, k) in &desired {
            let placed = new.iter().filter(|&&s| s == Some(c)).count() as u64;
            prop_assert_eq!(placed, k, "color {} placement", c);
        }
        let placed_total: u64 = new.iter().filter(|s| s.is_some()).count() as u64;
        prop_assert_eq!(placed_total, desired.iter().map(|&(_, k)| k).sum::<u64>());

        // Optimality: reconfigurations equal the copies that were missing.
        let mut missing = 0u64;
        for &(c, k) in &desired {
            let have = old.iter().filter(|&&s| s == Some(c)).count() as u64;
            missing += k.saturating_sub(have);
        }
        prop_assert_eq!(recolor_reconfigs(&old, &new), missing);
    }
}
