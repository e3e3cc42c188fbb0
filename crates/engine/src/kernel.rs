//! The round kernel: the four phases of a round (Section 2) over a
//! [`PendingStore`] and a location assignment, written once. The simulator
//! drives the physical instance through it, and a reduction stack
//! (`rrs_core::Reduced`) drives its inner policy over the stack's one
//! *virtual* instance through the same calls: [`RoundKernel::drop_due`],
//! one [`RoundKernel::arrive`] per batch, then [`RoundKernel::reconfigure`]
//! and [`RoundKernel::execute`] once per mini-round.
//!
//! The kernel charges no cost and emits no events; its caller does that
//! between the calls. It owns every buffer of the round, so a steady-state
//! round allocates nothing (`tests/alloc_discipline.rs`).

use rrs_model::{ColorId, ColorMap, ColorTable, SnapError, SnapReader, SnapWriter};

use crate::checkpoint::{get_slots, put_slots, Snapshot};
use crate::pending::PendingStore;
use crate::policy::{ColorCounts, Observation, Policy, Slot};
use crate::trace::PhaseState;

/// The state and buffers of one round loop (see the module docs).
#[derive(Debug, Default)]
pub struct RoundKernel {
    pending: PendingStore,
    slots: Vec<Slot>,
    /// The assignment the policy writes into; the previous one after
    /// [`RoundKernel::reconfigure`].
    next: Vec<Slot>,
    arrivals: Vec<(ColorId, u64)>,
    dropped: Vec<(ColorId, u64)>,
    /// Execution grouping: configured locations per color, all zero
    /// between mini-rounds, and the colors touched this mini-round.
    exec_count: ColorMap<u64>,
    touched: Vec<ColorId>,
}

/// The round kernel under the name of [`crate::run_stream_session`]'s
/// `scratch` argument, which the benchmark package
/// (`crates/bench/src/bin/rrs-benchmark`) passes; it goes with that
/// forwarder. A session owns its kernel.
pub type Scratch = RoundKernel;

impl RoundKernel {
    /// An empty kernel with no locations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start over with no pending jobs and `n_locations` black locations.
    pub fn reset(&mut self, n_locations: usize) {
        self.restore(PendingStore::new(), vec![None; n_locations]);
    }

    /// Start from a carried-over pending store and assignment.
    pub fn restore(&mut self, pending: PendingStore, slots: Vec<Slot>) {
        self.pending = pending;
        self.slots = slots;
        self.arrivals.clear();
        self.dropped.clear();
    }

    /// Hand back the pending store and the assignment, leaving both empty.
    pub fn take(&mut self) -> (PendingStore, Vec<Slot>) {
        (std::mem::take(&mut self.pending), std::mem::take(&mut self.slots))
    }

    /// Make the pending store cover colors `0..n`, as a snapshot records.
    #[inline]
    pub fn ensure_colors(&mut self, n: usize) {
        self.pending.ensure_colors(n);
    }

    /// Phase 1, which opens a round: drop every job due by `round` and
    /// clear the round's arrivals. Returns the number dropped.
    #[inline]
    pub fn drop_due(&mut self, round: u64) -> u64 {
        self.arrivals.clear();
        self.dropped.clear();
        self.pending.drop_due(round, &mut self.dropped)
    }

    /// Phase 2: `count` jobs of `color` arrive with `deadline`.
    #[inline]
    pub fn arrive(&mut self, color: ColorId, deadline: u64, count: u64) {
        self.arrivals.push((color, count));
        self.pending.arrive(color, deadline, count);
    }

    /// Phase 3: `policy` rewrites the assignment for mini-round
    /// `mini_round`, observing the round's arrivals (sorted by color) and
    /// drops on mini-round 0 only.
    ///
    /// # Panics
    /// Panics if the policy changes the number of locations.
    pub fn reconfigure<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        colors: &ColorTable,
        round: u64,
        mini_round: u32,
        speed: u32,
        delta: u64,
    ) {
        if mini_round == 0 {
            self.arrivals.sort_unstable_by_key(|&(c, _)| c);
        }
        let (arrivals, dropped): (&ColorCounts, &ColorCounts) =
            if mini_round == 0 { (&self.arrivals, &self.dropped) } else { (&[], &[]) };
        self.next.clone_from(&self.slots);
        let obs = Observation {
            round,
            mini_round,
            speed,
            delta,
            colors,
            arrivals,
            dropped,
            pending: &self.pending,
            slots: &self.slots,
        };
        policy.reconfigure(&obs, &mut self.next);
        assert_eq!(
            self.next.len(),
            self.slots.len(),
            "policy {} changed the number of locations",
            policy.name()
        );
        std::mem::swap(&mut self.slots, &mut self.next);
    }

    /// Phase 4: every configured location executes one earliest-deadline
    /// job of its color. Colors run in ascending order, calling
    /// `on_execute(color, executed)` for each that executed any.
    pub fn execute(&mut self, mut on_execute: impl FnMut(ColorId, u64)) {
        self.touched.clear();
        for &s in &self.slots {
            if let Some(c) = s {
                let k = self.exec_count.entry(c);
                if *k == 0 {
                    self.touched.push(c);
                }
                *k += 1;
            }
        }
        self.touched.sort_unstable();
        for &c in &self.touched {
            let q = std::mem::take(&mut self.exec_count[c]);
            let e = self.pending.execute(c, q);
            if e > 0 {
                on_execute(c, e);
            }
        }
    }

    /// The pending store.
    #[inline]
    pub fn pending(&self) -> &PendingStore {
        &self.pending
    }

    /// The current assignment.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The assignment before the last [`RoundKernel::reconfigure`].
    #[inline]
    pub fn previous_slots(&self) -> &[Slot] {
        &self.next
    }

    /// This round's arrivals so far.
    #[inline]
    pub fn arrivals(&self) -> &ColorCounts {
        &self.arrivals
    }

    /// This round's drops, in consistent order.
    #[inline]
    pub fn dropped(&self) -> &ColorCounts {
        &self.dropped
    }

    /// The state a recorder sees at the end of a phase, with `charged`
    /// locations charged Δ by the round's latest reconfiguration.
    #[inline]
    pub fn phase_state(&self, charged: u64) -> PhaseState<'_> {
        PhaseState {
            dropped: &self.dropped,
            arrivals: &self.arrivals,
            previous_slots: &self.next,
            slots: &self.slots,
            charged,
            pending: &self.pending,
        }
    }

    /// Live pages of the kernel's paged per-color maps (DESIGN.md §14).
    pub fn live_pages(&self) -> usize {
        self.pending.live_pages() + self.exec_count.live_pages()
    }

    /// Append the pending store and the assignment (a reduction stack's
    /// virtual state), then the wrapped policy's name and state, to a
    /// snapshot.
    pub fn save_state<P: Snapshot + ?Sized>(&self, w: &mut SnapWriter, inner: &P) {
        self.pending.save_state(w);
        put_slots(w, &self.slots);
        w.put_str(inner.name());
        inner.save_state(w);
    }

    /// Restore what [`RoundKernel::save_state`] wrote. The assignment must
    /// have this kernel's location count and name only colors of
    /// `colors`, and the snapshot must wrap a policy named like `inner`.
    pub fn load_state<P: Snapshot + ?Sized>(
        &mut self,
        r: &mut SnapReader<'_>,
        colors: &ColorTable,
        inner: &mut P,
    ) -> Result<(), SnapError> {
        let pending = PendingStore::load_state(r)?;
        let slots = get_slots(r, "virtual slots")?;
        if slots.len() != self.slots.len() {
            return Err(SnapError::Invalid(format!(
                "virtual slot count {} does not match {} locations",
                slots.len(),
                self.slots.len()
            )));
        }
        if let Some(vc) = slots.iter().flatten().find(|&&vc| !colors.contains(vc)) {
            return Err(SnapError::Invalid(format!("virtual slot holds unknown color {vc}")));
        }
        let name = r.get_str("inner policy name")?;
        if name != inner.name() {
            return Err(SnapError::Invalid(format!(
                "snapshot wraps inner policy {name:?} but this wrapper holds {:?}",
                inner.name()
            )));
        }
        inner.load_state(r)?;
        self.pending = pending;
        self.slots = slots;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DoNothing, PinColor};

    #[test]
    fn one_round_through_every_phase() {
        let colors = ColorTable::from_bounds(&[2, 4]);
        let (a, b) = (ColorId(0), ColorId(1));
        let mut k = RoundKernel::new();
        k.reset(2);
        assert_eq!(k.drop_due(0), 0);
        k.arrive(b, 4, 1);
        k.arrive(a, 2, 3);
        k.reconfigure(&mut PinColor(a), &colors, 0, 0, 1, 1);
        assert_eq!(k.arrivals(), &[(a, 3), (b, 1)], "arrivals are observed in color order");
        assert_eq!(k.previous_slots(), &[None, None]);
        assert_eq!(k.slots(), &[Some(a), Some(a)]);
        let mut seen = Vec::new();
        k.execute(|c, e| seen.push((c, e)));
        assert_eq!(seen, vec![(a, 2)]);
        assert_eq!(k.pending().total(), 2);

        // Round 2 drops the remaining color-a job; b is still pending.
        assert_eq!(k.drop_due(2), 1);
        assert_eq!(k.dropped(), &[(a, 1)]);
        assert!(k.arrivals().is_empty());
        let (pending, slots) = k.take();
        assert_eq!(pending.total(), 1);
        assert_eq!(slots, vec![Some(a), Some(a)]);
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let colors = ColorTable::from_bounds(&[2]);
        let mut pin = PinColor(ColorId(0));
        let mut k = RoundKernel::new();
        k.reset(2);
        k.drop_due(0);
        k.arrive(ColorId(0), 2, 1);
        k.reconfigure(&mut pin, &colors, 0, 0, 1, 1);
        let mut w = SnapWriter::new();
        k.save_state(&mut w, &pin);
        let bytes = w.finish();
        let load = |k: &mut RoundKernel, colors: &ColorTable, inner: &mut dyn Snapshot| {
            k.load_state(&mut SnapReader::new(&bytes).unwrap(), colors, inner)
        };

        let mut back = RoundKernel::new();
        back.reset(2);
        load(&mut back, &colors, &mut pin).unwrap();
        assert_eq!(back.slots(), k.slots());
        assert_eq!(back.pending(), k.pending());

        let mut narrow = RoundKernel::new();
        narrow.reset(3);
        let err = load(&mut narrow, &colors, &mut pin).unwrap_err().to_string();
        assert!(err.contains("virtual slot count 2 does not match 3"), "{err}");
        let err = load(&mut back, &ColorTable::new(), &mut pin).unwrap_err().to_string();
        assert!(err.contains("unknown color"), "{err}");
        let err = load(&mut back, &colors, &mut DoNothing).unwrap_err().to_string();
        assert!(err.contains("\"pin-color\"") && err.contains("\"do-nothing\""), "{err}");
    }
}
