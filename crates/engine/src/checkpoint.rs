//! Checkpoint/resume: durable snapshots of a mid-run simulation.
//!
//! A checkpoint captures the *complete* deterministic state of a run at a
//! round boundary — the round counter, the [`PendingStore`], the location
//! assignment, the cost ledger and conservation counters, and the policy's
//! own mutable state via the [`Snapshot`] trait — framed in the versioned
//! byte format of `rrs_model::snap` (DESIGN.md §10). Resuming from a
//! snapshot reproduces the uninterrupted run **byte-for-byte**: the same
//! trace suffix, the same `Outcome`, the same final assignment. That
//! equivalence is what `tests/checkpoint_equivalence.rs` enforces for every
//! policy and both reductions.
//!
//! What is deliberately *excluded*: per-round scratch buffers (dead at
//! round boundaries), advisory telemetry (`PhaseTimer`), and anything
//! derivable from the instance itself. A snapshot
//! pairs with the instance it was taken from; it does not embed the
//! request sequence.
//!
//! Snapshots are taken at the **top of a round**, before any of the
//! round's events are emitted, so a resumed run re-emits the checkpoint
//! round in full and the stitched trace `prefix(0..k) + suffix(k..)` is
//! identical to the uninterrupted trace.

use std::fmt;

use rrs_model::{
    ColorId, ColorSet, ColorTable, CostLedger, SnapError, SnapReader, SnapWriter, StreamError,
};

use crate::pending::PendingStore;
use crate::policy::{DoNothing, PinColor, Policy, Slot};
use crate::sim::Outcome;

/// A policy whose mutable state can be serialized into a snapshot and
/// restored from one.
///
/// The contract: construct the policy exactly as for a fresh run, call
/// [`Policy::init`], then [`Snapshot::load_state`] overwrites the mutable
/// state with the checkpointed values. Configuration derived from
/// construction parameters and `init` arguments (capacities, replication,
/// Δ) is *not* stored — `load_state` may validate it against the snapshot
/// but never changes it, so a snapshot cannot silently reconfigure a
/// policy.
pub trait Snapshot: Policy {
    /// Append the policy's mutable state to the writer.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restore the policy's mutable state, mirroring
    /// [`Snapshot::save_state`] exactly. The policy has been constructed
    /// and [`Policy::init`]-ed identically to the checkpointing run.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<P: Snapshot + ?Sized> Snapshot for &mut P {
    fn save_state(&self, w: &mut SnapWriter) {
        (**self).save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load_state(r)
    }
}

impl<P: Snapshot + ?Sized> Snapshot for Box<P> {
    fn save_state(&self, w: &mut SnapWriter) {
        (**self).save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load_state(r)
    }
}

impl Snapshot for DoNothing {
    fn save_state(&self, _w: &mut SnapWriter) {}
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl Snapshot for PinColor {
    // The pinned color is a construction parameter, not mutable state.
    fn save_state(&self, _w: &mut SnapWriter) {}
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wire helpers shared by every `Snapshot` implementation.
// ---------------------------------------------------------------------------

/// Write a [`ColorSet`] as a count followed by ascending member ids.
pub fn put_color_set(w: &mut SnapWriter, set: &ColorSet) {
    w.put_u64(set.len() as u64);
    for c in set.iter() {
        w.put_u32(c.0);
    }
}

/// Read a [`ColorSet`] written by [`put_color_set`]: a sparse section
/// over the whole `u32` id space with no payload per member.
pub fn get_color_set(r: &mut SnapReader<'_>, what: &'static str) -> Result<ColorSet, SnapError> {
    let mut set = ColorSet::new();
    get_sparse(r, 1 << 32, what, |_, c| {
        set.insert(c);
        Ok(())
    })?;
    Ok(set)
}

/// Read a sparse per-color section: an entry count no larger than
/// `coverage`, then per entry a color id, strictly ascending and below
/// `coverage`, followed by a payload that `entry` decodes. Every sparse
/// per-color section of a snapshot, color sets included, reads through
/// this one decoder, so all share its checks and error messages (each
/// naming `what`).
pub fn get_sparse(
    r: &mut SnapReader<'_>,
    coverage: u64,
    what: &'static str,
    mut entry: impl FnMut(&mut SnapReader<'_>, ColorId) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    let n = r.get_u64(what)?;
    if n > coverage {
        return Err(SnapError::Invalid(format!("{what}: {n} entries exceed coverage {coverage}")));
    }
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let id = r.get_u32(what)?;
        if u64::from(id) >= coverage {
            return Err(SnapError::Invalid(format!(
                "{what}: color id {id} beyond coverage {coverage}"
            )));
        }
        if let Some(p) = prev.filter(|&p| id <= p) {
            return Err(SnapError::Invalid(format!(
                "{what}: color ids not strictly ascending ({p} then {id})"
            )));
        }
        prev = Some(id);
        entry(r, ColorId(id))?;
    }
    Ok(())
}

/// Write a [`ColorTable`] as a count followed by each color's delay bound.
pub fn put_color_table(w: &mut SnapWriter, table: &ColorTable) {
    w.put_u64(table.len() as u64);
    for (_, bound) in table.iter() {
        w.put_u64(bound);
    }
}

/// Read a [`ColorTable`] written by [`put_color_table`].
pub fn get_color_table(
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<ColorTable, SnapError> {
    let n = r.get_u64(what)?;
    let mut table = ColorTable::new();
    for _ in 0..n {
        let bound = r.get_u64(what)?;
        if bound == 0 {
            return Err(SnapError::Invalid(format!("{what}: zero delay bound")));
        }
        table.push(bound);
    }
    Ok(table)
}

/// Write a `bool` as a single byte.
pub fn put_bool(w: &mut SnapWriter, v: bool) {
    w.put_u8(v as u8);
}

/// Read a `bool` written by [`put_bool`]; any byte besides 0/1 is invalid.
pub fn get_bool(r: &mut SnapReader<'_>, what: &'static str) -> Result<bool, SnapError> {
    match r.get_u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(SnapError::Invalid(format!("{what}: bad bool byte {t}"))),
    }
}

/// Write an `Option<u64>` as a presence tag plus the value.
pub fn put_opt_u64(w: &mut SnapWriter, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
    }
}

/// Read an `Option<u64>` written by [`put_opt_u64`].
pub fn get_opt_u64(r: &mut SnapReader<'_>, what: &'static str) -> Result<Option<u64>, SnapError> {
    match r.get_u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.get_u64(what)?)),
        t => Err(SnapError::Invalid(format!("{what}: bad option tag {t}"))),
    }
}

/// Write a location assignment; black slots use a `u32::MAX` sentinel.
pub fn put_slots(w: &mut SnapWriter, slots: &[Slot]) {
    w.put_u64(slots.len() as u64);
    for s in slots {
        w.put_u32(match s {
            None => u32::MAX,
            Some(c) => c.0,
        });
    }
}

/// Read a location assignment written by [`put_slots`].
pub fn get_slots(r: &mut SnapReader<'_>, what: &'static str) -> Result<Vec<Slot>, SnapError> {
    let n = r.get_u64(what)?;
    let n = usize::try_from(n)
        .map_err(|_| SnapError::Invalid(format!("{what}: slot count too large")))?;
    let mut slots = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let raw = r.get_u32(what)?;
        slots.push(if raw == u32::MAX { None } else { Some(ColorId(raw)) });
    }
    Ok(slots)
}

// ---------------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------------

/// The engine's own state at a round boundary — everything the round loop
/// carries besides the policy.
///
/// `next_round` is the first round the resumed run will simulate; the
/// snapshot was taken before any of that round's events. `horizon_hint`
/// records the horizon the checkpointing run knew at that moment: a
/// materialized resume demands it exactly, and a streamed one never stops
/// before it (the two rules of `crate::sim`). A run stops or emits only
/// at a round within that horizon, with every pending job due inside it,
/// and [`EngineState::load`] rejects a state that claims otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineState {
    /// First round the resumed run simulates.
    pub next_round: u64,
    /// Schedule speed (mini-rounds per round).
    pub speed: u32,
    /// Number of locations.
    pub n_locations: usize,
    /// Horizon known to the checkpointing run when the snapshot was taken.
    pub horizon_hint: u64,
    /// Location assignment at the round boundary.
    pub slots: Vec<Slot>,
    /// Cost accounting so far (Δ, reconfiguration count, drop count).
    pub ledger: CostLedger,
    /// Jobs arrived so far.
    pub arrived: u64,
    /// Jobs executed so far.
    pub executed: u64,
    /// Jobs dropped so far.
    pub dropped: u64,
    /// Pending jobs at the round boundary.
    pub pending: PendingStore,
}

impl EngineState {
    /// The state before round 0 of a fresh run.
    pub(crate) fn fresh(delta: u64, speed: u32, n_locations: usize) -> Self {
        EngineState {
            next_round: 0,
            speed,
            n_locations,
            horizon_hint: 0,
            slots: vec![None; n_locations],
            ledger: CostLedger::new(delta),
            arrived: 0,
            executed: 0,
            dropped: 0,
            pending: PendingStore::new(),
        }
    }

    /// Check that a run over `n_locations` at `speed` with cost `delta`
    /// may resume from this state.
    pub(crate) fn check_resumable(
        &self,
        n_locations: usize,
        speed: u32,
        delta: u64,
    ) -> Result<(), SnapError> {
        let mismatch = if self.n_locations != n_locations {
            format!("snapshot has {} locations, this run has {n_locations}", self.n_locations)
        } else if self.speed != speed {
            format!("snapshot was taken at speed {}, this run has speed {speed}", self.speed)
        } else if self.ledger.delta != delta {
            format!("snapshot has delta {}, this run has delta {delta}", self.ledger.delta)
        } else {
            return Ok(());
        };
        Err(SnapError::Invalid(mismatch))
    }

    /// Serialize into a writer (the body of the `engine` section).
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.next_round);
        w.put_u32(self.speed);
        w.put_u64(self.n_locations as u64);
        w.put_u64(self.horizon_hint);
        w.put_u64(self.ledger.delta);
        w.put_u64(self.ledger.reconfigs);
        w.put_u64(self.ledger.drops);
        w.put_u64(self.arrived);
        w.put_u64(self.executed);
        w.put_u64(self.dropped);
        put_slots(w, &self.slots);
        self.pending.save_state(w);
    }

    /// Decode a state written by [`EngineState::save`], validating the
    /// structural invariants a checkpointing run always satisfies.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let next_round = r.get_u64("next round")?;
        let speed = r.get_u32("speed")?;
        if speed == 0 {
            return Err(SnapError::Invalid("speed must be at least 1".into()));
        }
        let n_locations = r.get_u64("location count")?;
        let n_locations = usize::try_from(n_locations)
            .map_err(|_| SnapError::Invalid(format!("location count {n_locations} too large")))?;
        let horizon_hint = r.get_u64("horizon hint")?;
        let delta = r.get_u64("delta")?;
        let reconfigs = r.get_u64("reconfig count")?;
        let drops = r.get_u64("drop count")?;
        let arrived = r.get_u64("arrived")?;
        let executed = r.get_u64("executed")?;
        let dropped = r.get_u64("dropped")?;
        if drops != dropped {
            return Err(SnapError::Invalid(format!(
                "ledger drops {drops} disagree with dropped counter {dropped}"
            )));
        }
        let slots = get_slots(r, "slots")?;
        if slots.len() != n_locations {
            return Err(SnapError::Invalid(format!(
                "slot vector has {} entries for {} locations",
                slots.len(),
                n_locations
            )));
        }
        let pending = PendingStore::load_state(r)?;
        let accounted = executed.checked_add(dropped).and_then(|n| n.checked_add(pending.total()));
        if accounted != Some(arrived) {
            return Err(SnapError::Invalid(format!(
                "conservation violated: arrived {} != executed {} + dropped {} + pending {}",
                arrived,
                executed,
                dropped,
                pending.total()
            )));
        }
        if delta.checked_mul(reconfigs).and_then(|c| c.checked_add(drops)).is_none() {
            return Err(SnapError::Invalid(format!(
                "ledger cost overflows u64: delta {delta} * {reconfigs} reconfigs + {drops} drops"
            )));
        }
        // A run suspends or emits only at a round within its horizon, and
        // every job pending then is due within the horizon it knew.
        if next_round > horizon_hint {
            return Err(SnapError::Invalid(format!(
                "next round {next_round} is past the horizon hint {horizon_hint}"
            )));
        }
        let latest = pending.nonidle_colors().filter_map(|c| pending.profile(c).last()).max();
        if let Some((deadline, _)) = latest.filter(|&(d, _)| d > horizon_hint) {
            return Err(SnapError::Invalid(format!(
                "pending deadline {deadline} is past the horizon hint {horizon_hint}"
            )));
        }
        let mut ledger = CostLedger::new(delta);
        ledger.add_reconfigs(reconfigs);
        ledger.add_drops(drops);
        Ok(EngineState {
            next_round,
            speed,
            n_locations,
            horizon_hint,
            slots,
            ledger,
            arrived,
            executed,
            dropped,
            pending,
        })
    }
}

/// A borrowed view of the live engine state at the top of a round, from
/// which [`EngineView::to_state`] materializes an owned [`EngineState`].
pub(crate) struct EngineView<'v> {
    pub speed: u32,
    pub n_locations: usize,
    pub horizon: u64,
    pub slots: &'v [Slot],
    pub ledger: &'v CostLedger,
    pub arrived: u64,
    pub executed: u64,
    pub dropped: u64,
    pub pending: &'v PendingStore,
}

impl EngineView<'_> {
    pub(crate) fn to_state(&self, next_round: u64) -> EngineState {
        EngineState {
            next_round,
            speed: self.speed,
            n_locations: self.n_locations,
            horizon_hint: self.horizon,
            slots: self.slots.to_vec(),
            ledger: *self.ledger,
            arrived: self.arrived,
            executed: self.executed,
            dropped: self.dropped,
            pending: self.pending.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// Encode a complete snapshot: an `engine` section with the
/// [`EngineState`] and a `policy` section holding the policy's name and
/// its [`Snapshot`] state.
pub fn encode_snapshot<P: Snapshot + ?Sized>(state: &EngineState, policy: &P) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.section("engine", |s| state.save(s));
    w.section("policy", |s| {
        s.put_str(policy.name());
        policy.save_state(s);
    });
    w.finish()
}

/// A parsed snapshot: the engine state plus the policy section, decoded
/// lazily by [`SnapshotFile::load_policy`] once the caller has constructed
/// the matching policy.
#[derive(Debug)]
pub struct SnapshotFile<'a> {
    /// The engine's state at the checkpointed round boundary.
    pub state: EngineState,
    /// Name of the policy that took the snapshot.
    pub policy_name: String,
    policy_body: &'a [u8],
}

impl<'a> SnapshotFile<'a> {
    /// Parse and integrity-check a snapshot byte string.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let mut eng = r.section("engine")?;
        let state = EngineState::load(&mut eng)?;
        eng.expect_end("engine section")?;
        let mut pol = r.section("policy")?;
        let policy_name = pol.get_str("policy name")?.to_string();
        let policy_body = pol.rest();
        r.expect_end("snapshot")?;
        Ok(SnapshotFile { state, policy_name, policy_body })
    }

    /// Restore `policy` (already constructed and [`Policy::init`]-ed as
    /// for a fresh run) from the snapshot's policy section. Rejects a
    /// policy whose name differs from the checkpointing one.
    pub fn load_policy<P: Snapshot + ?Sized>(&self, policy: &mut P) -> Result<(), SnapError> {
        if self.policy_name != policy.name() {
            return Err(SnapError::Invalid(format!(
                "snapshot was taken with policy '{}', cannot resume with '{}'",
                self.policy_name,
                policy.name()
            )));
        }
        let mut r = SnapReader::over(self.policy_body);
        policy.load_state(&mut r)?;
        r.expect_end("policy state")
    }
}

// ---------------------------------------------------------------------------
// Checkpoint scheduling and session plumbing
// ---------------------------------------------------------------------------

/// Receiver for checkpoint bytes emitted mid-run: called with the round the
/// snapshot was taken at (top-of-round) and the encoded snapshot.
pub type SnapshotSink<'a> = &'a mut dyn FnMut(u64, &[u8]);

/// When the engine emits checkpoints during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint (the default).
    #[default]
    Never,
    /// Checkpoint at the top of every round `k·N` for `k ≥ 1`.
    EveryN(u64),
    /// Checkpoint at the top of each listed round.
    AtRounds(Vec<u64>),
}

impl CheckpointPolicy {
    /// Whether a checkpoint is due at the top of `round`.
    pub fn due(&self, round: u64) -> bool {
        match self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryN(n) => *n > 0 && round > 0 && round.is_multiple_of(*n),
            CheckpointPolicy::AtRounds(rounds) => rounds.contains(&round),
        }
    }
}

/// How a simulation session ended.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionResult {
    /// The run reached the horizon.
    Completed(Outcome),
    /// The run suspended at the top of `round`; `snapshot` resumes it.
    Suspended {
        /// The first round the resumed run will simulate.
        round: u64,
        /// The encoded snapshot (see [`encode_snapshot`]).
        snapshot: Vec<u8>,
    },
}

impl SessionResult {
    /// The outcome of a completed session.
    ///
    /// # Panics
    /// Panics if the session suspended instead.
    pub fn into_outcome(self) -> Outcome {
        match self {
            SessionResult::Completed(out) => out,
            SessionResult::Suspended { round, .. } => {
                panic!("session suspended at round {round}, no outcome")
            }
        }
    }

    /// The snapshot of a suspended session.
    ///
    /// # Panics
    /// Panics if the session ran to completion instead.
    pub fn into_snapshot(self) -> Vec<u8> {
        match self {
            SessionResult::Suspended { snapshot, .. } => snapshot,
            SessionResult::Completed(_) => panic!("session completed, no snapshot"),
        }
    }
}

/// A failure while driving a session: a bad snapshot, or (streaming only)
/// an I/O or parse error from the instance source.
#[derive(Debug)]
pub enum SessionError {
    /// The snapshot could not be decoded or does not match this run.
    Snapshot(SnapError),
    /// The streaming instance source failed.
    Stream(StreamError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Snapshot(e) => write!(f, "{e}"),
            SessionError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SnapError> for SessionError {
    fn from(e: SnapError) -> Self {
        SessionError::Snapshot(e)
    }
}

impl From<StreamError> for SessionError {
    fn from(e: StreamError) -> Self {
        SessionError::Stream(e)
    }
}

/// What a round-boundary hook tells the loop to do.
pub(crate) enum HookVerdict {
    /// Keep simulating.
    Continue,
    /// Stop before this round; the snapshot resumes it.
    Suspend(Vec<u8>),
}

/// A hook the round loop calls at the top of every round, before any of
/// the round's events are emitted. The no-op [`NoHook`] keeps the plain
/// `run*` paths free of any `Snapshot` bound and compiles to nothing.
pub(crate) trait SessionHook<P: ?Sized> {
    fn on_round(&mut self, round: u64, view: &EngineView<'_>, policy: &P) -> HookVerdict;
}

/// The default hook: no checkpoints, never suspends, costs nothing.
pub(crate) struct NoHook;

impl<P: ?Sized> SessionHook<P> for NoHook {
    #[inline]
    fn on_round(&mut self, _round: u64, _view: &EngineView<'_>, _policy: &P) -> HookVerdict {
        HookVerdict::Continue
    }
}

/// The active hook: emits due checkpoints to `sink` and suspends the run
/// at `stop_before`.
pub(crate) struct CheckpointHook<'p, 'f> {
    pub plan: &'p CheckpointPolicy,
    pub sink: Option<SnapshotSink<'f>>,
    pub stop_before: Option<u64>,
}

impl<P: Snapshot + ?Sized> SessionHook<P> for CheckpointHook<'_, '_> {
    fn on_round(&mut self, round: u64, view: &EngineView<'_>, policy: &P) -> HookVerdict {
        if self.stop_before == Some(round) {
            return HookVerdict::Suspend(encode_snapshot(&view.to_state(round), policy));
        }
        if self.plan.due(round) {
            if let Some(sink) = self.sink.as_mut() {
                let bytes = encode_snapshot(&view.to_state(round), policy);
                sink(round, &bytes);
            }
        }
        HookVerdict::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_policy_due_rounds() {
        assert!(!CheckpointPolicy::Never.due(0));
        assert!(!CheckpointPolicy::Never.due(100));
        let every = CheckpointPolicy::EveryN(5);
        assert!(!every.due(0));
        assert!(!every.due(4));
        assert!(every.due(5));
        assert!(every.due(10));
        assert!(!CheckpointPolicy::EveryN(0).due(0));
        let at = CheckpointPolicy::AtRounds(vec![0, 7]);
        assert!(at.due(0));
        assert!(at.due(7));
        assert!(!at.due(5));
    }

    #[test]
    fn engine_state_round_trips() {
        let mut pending = PendingStore::new();
        pending.arrive(ColorId(0), 9, 3);
        pending.arrive(ColorId(2), 12, 1);
        let mut ledger = CostLedger::new(4);
        ledger.add_reconfigs(6);
        ledger.add_drops(2);
        let state = EngineState {
            next_round: 7,
            speed: 2,
            n_locations: 3,
            horizon_hint: 40,
            slots: vec![Some(ColorId(1)), None, Some(ColorId(0))],
            ledger,
            arrived: 6,
            executed: 0,
            dropped: 2,
            pending,
        };
        let mut w = SnapWriter::new();
        state.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let loaded = EngineState::load(&mut r).unwrap();
        r.expect_end("state").unwrap();
        assert_eq!(loaded, state);
    }

    #[test]
    fn engine_state_rejects_broken_conservation() {
        let state = EngineState {
            next_round: 1,
            speed: 1,
            n_locations: 1,
            horizon_hint: 1,
            slots: vec![None],
            ledger: CostLedger::new(1),
            arrived: 5, // but nothing executed, dropped, or pending
            executed: 0,
            dropped: 0,
            pending: PendingStore::new(),
        };
        let mut w = SnapWriter::new();
        state.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(EngineState::load(&mut r), Err(SnapError::Invalid(_))));
    }

    /// Load `state` back through a CRC-valid engine section.
    fn reload(state: &EngineState) -> Result<EngineState, SnapError> {
        let mut w = SnapWriter::new();
        state.save(&mut w);
        EngineState::load(&mut SnapReader::new(&w.finish()).unwrap())
    }

    /// A consistent state at round 3 of a run whose horizon is 16, with 4
    /// jobs of color 0 due at 8.
    fn mid_run_state() -> EngineState {
        let mut pending = PendingStore::new();
        pending.arrive(ColorId(0), 8, 4);
        EngineState {
            next_round: 3,
            speed: 1,
            n_locations: 1,
            horizon_hint: 16,
            slots: vec![None],
            ledger: CostLedger::new(1),
            arrived: 4,
            executed: 0,
            dropped: 0,
            pending,
        }
    }

    #[test]
    fn engine_state_rejects_a_next_round_past_the_horizon() {
        assert_eq!(reload(&mid_run_state()), Ok(mid_run_state()));
        assert!(reload(&EngineState { next_round: 16, ..mid_run_state() }).is_ok());
        let err = reload(&EngineState { next_round: 1000, ..mid_run_state() }).unwrap_err();
        assert_eq!(err, SnapError::Invalid("next round 1000 is past the horizon hint 16".into()));
    }

    #[test]
    fn engine_state_rejects_a_pending_deadline_past_the_horizon() {
        let mut state = mid_run_state();
        state.pending.arrive(ColorId(2), 16, 1);
        state.arrived += 1;
        assert!(reload(&state).is_ok());
        state.pending.arrive(ColorId(2), 17, 1);
        state.arrived += 1;
        let err = reload(&state).unwrap_err();
        assert_eq!(
            err,
            SnapError::Invalid("pending deadline 17 is past the horizon hint 16".into())
        );
    }

    /// A CRC-valid snapshot of a one-location run whose engine section
    /// carries the given ledger and conservation counters (the dropped
    /// counter equals the ledger's drops) and whose pending store is
    /// written raw by `pending`; the policy section names `do-nothing`.
    fn engine_frame(
        ledger: CostLedger,
        arrived: u64,
        executed: u64,
        pending: impl FnOnce(&mut SnapWriter),
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section("engine", |s| {
            s.put_u64(0); // next round
            s.put_u32(1); // speed
            s.put_u64(1); // locations
            s.put_u64(0); // horizon hint
            s.put_u64(ledger.delta);
            s.put_u64(ledger.reconfigs);
            s.put_u64(ledger.drops);
            s.put_u64(arrived);
            s.put_u64(executed);
            s.put_u64(ledger.drops);
            put_slots(s, &[None]);
            pending(s);
        });
        w.section("policy", |s| s.put_str("do-nothing"));
        w.finish()
    }

    /// A pending store with no colors and no jobs.
    fn empty_pending(w: &mut SnapWriter) {
        w.put_u64(0); // coverage
        w.put_u64(0); // nonempty queues
        w.put_u64(u64::MAX); // min_due
    }

    fn invalid_message(bytes: &[u8]) -> String {
        match SnapshotFile::parse(bytes) {
            Err(SnapError::Invalid(msg)) => msg,
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn pending_job_counts_that_overflow_are_rejected() {
        // One color whose two queue entries hold 2^63 jobs each.
        let one_color = engine_frame(CostLedger::new(1), 0, 0, |w| {
            w.put_u64(1);
            w.put_u64(1);
            w.put_u32(0);
            w.put_u64(2);
            for deadline in [5, 6] {
                w.put_u64(deadline);
                w.put_u64(1 << 63);
            }
            w.put_u64(5);
        });
        assert!(invalid_message(&one_color).contains("overflow"));
        // Two colors of 2^63 jobs each: the store's total overflows.
        let two_colors = engine_frame(CostLedger::new(1), 0, 0, |w| {
            w.put_u64(2);
            w.put_u64(2);
            for color in [0, 1] {
                w.put_u32(color);
                w.put_u64(1);
                w.put_u64(5);
                w.put_u64(1 << 63);
            }
            w.put_u64(5);
        });
        assert!(invalid_message(&two_colors).contains("overflow"));
    }

    #[test]
    fn conservation_sums_that_overflow_are_rejected() {
        let mut ledger = CostLedger::new(1);
        ledger.add_drops(1);
        assert!(SnapshotFile::parse(&engine_frame(ledger, 2, 1, empty_pending)).is_ok());
        // executed + dropped wraps to 0 = arrived in unchecked arithmetic.
        let wrapped = engine_frame(ledger, 0, u64::MAX, empty_pending);
        assert!(invalid_message(&wrapped).contains("conservation"));
    }

    #[test]
    fn ledger_costs_that_overflow_are_rejected() {
        let mut ledger = CostLedger::new(3);
        ledger.add_reconfigs(2);
        assert!(SnapshotFile::parse(&engine_frame(ledger, 0, 0, empty_pending)).is_ok());
        // Δ · reconfigs = 3 · 2^63 does not fit a u64.
        let ledger = CostLedger { reconfigs: 1 << 63, ..ledger };
        let msg = invalid_message(&engine_frame(ledger, 0, 0, empty_pending));
        assert!(msg.contains("ledger cost overflows"), "{msg}");
    }

    #[test]
    fn snapshot_file_round_trips_and_checks_policy_name() {
        let state = EngineState {
            next_round: 0,
            speed: 1,
            n_locations: 2,
            horizon_hint: 0,
            slots: vec![None, None],
            ledger: CostLedger::new(1),
            arrived: 0,
            executed: 0,
            dropped: 0,
            pending: PendingStore::new(),
        };
        let bytes = encode_snapshot(&state, &DoNothing);
        let file = SnapshotFile::parse(&bytes).unwrap();
        assert_eq!(file.policy_name, "do-nothing");
        assert_eq!(file.state, state);
        let mut ok = DoNothing;
        file.load_policy(&mut ok).unwrap();
        let mut wrong = PinColor(ColorId(0));
        let err = file.load_policy(&mut wrong).unwrap_err();
        assert!(matches!(err, SnapError::Invalid(_)), "{err}");
    }

    #[test]
    fn wire_helpers_round_trip() {
        let mut w = SnapWriter::new();
        let set: ColorSet = [ColorId(1), ColorId(4)].into_iter().collect();
        put_color_set(&mut w, &set);
        let table = ColorTable::from_bounds(&[2, 8]);
        put_color_table(&mut w, &table);
        put_opt_u64(&mut w, None);
        put_opt_u64(&mut w, Some(77));
        put_slots(&mut w, &[None, Some(ColorId(3))]);
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        let set2 = get_color_set(&mut r, "set").unwrap();
        assert_eq!(set2.iter().collect::<Vec<_>>(), vec![ColorId(1), ColorId(4)]);
        let table2 = get_color_table(&mut r, "table").unwrap();
        assert_eq!(table2, table);
        assert_eq!(get_opt_u64(&mut r, "a").unwrap(), None);
        assert_eq!(get_opt_u64(&mut r, "b").unwrap(), Some(77));
        assert_eq!(get_slots(&mut r, "slots").unwrap(), vec![None, Some(ColorId(3))]);
        r.expect_end("wire").unwrap();
    }

    /// Read a sparse section of `(id, u64)` entries over `coverage`.
    fn read_sparse(bytes: &[u8], coverage: u64) -> Result<Vec<(ColorId, u64)>, SnapError> {
        let mut r = SnapReader::new(bytes).unwrap();
        let mut out = Vec::new();
        get_sparse(&mut r, coverage, "test entries", |r, c| {
            out.push((c, r.get_u64("test payload")?));
            Ok(())
        })?;
        r.expect_end("test section")?;
        Ok(out)
    }

    /// A section listing `ids`, each with payload `7`.
    fn sparse_section(count: u64, ids: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(count);
        for &id in ids {
            w.put_u32(id);
            w.put_u64(7);
        }
        w.finish()
    }

    #[test]
    fn get_sparse_reads_ascending_entries_with_payloads() {
        let got = read_sparse(&sparse_section(3, &[0, 2, 9]), 10).unwrap();
        assert_eq!(got, vec![(ColorId(0), 7), (ColorId(2), 7), (ColorId(9), 7)]);
        assert_eq!(read_sparse(&sparse_section(0, &[]), 0).unwrap(), vec![]);
    }

    #[test]
    fn get_sparse_rejects_malformed_sections() {
        let cases: [(&str, Vec<u8>, u64); 4] = [
            ("entries exceed coverage", sparse_section(3, &[0, 1, 2]), 2),
            ("color id 4 beyond coverage 4", sparse_section(2, &[1, 4]), 4),
            ("ascending (3 then 3)", sparse_section(2, &[3, 3]), 8),
            ("ascending (5 then 2)", sparse_section(2, &[5, 2]), 8),
        ];
        for (want, bytes, coverage) in cases {
            match read_sparse(&bytes, coverage) {
                Err(SnapError::Invalid(msg)) => {
                    assert!(msg.starts_with("test entries: ") && msg.contains(want), "{msg}");
                }
                other => panic!("{want}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn wire_helpers_reject_malformed_input() {
        // Non-ascending color set.
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_u32(5);
        w.put_u32(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(get_color_set(&mut r, "set"), Err(SnapError::Invalid(_))));

        // Bad option tag.
        let mut w = SnapWriter::new();
        w.put_u8(9);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(get_opt_u64(&mut r, "opt"), Err(SnapError::Invalid(_))));

        // Zero delay bound in a color table.
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(0);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(get_color_table(&mut r, "table"), Err(SnapError::Invalid(_))));
    }
}
