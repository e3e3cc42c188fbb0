//! Per-color cost attribution: who caused the drops and who consumed the
//! reconfigurations.
//!
//! Every drop belongs to a color by definition; every reconfiguration is
//! attributed to the color the location was recolored *to* (the same
//! convention the lower bound of [`rrs_offline::bounds`] uses: configuring
//! a processor to serve category ℓ is spending on ℓ).
//!
//! [`CostFold`] is that rule, applied to a live run as its recorder and to
//! a saved trace by [`per_color_from_events`].

use rrs_engine::{Recorder, Slot, TraceEvent};
use rrs_model::{ColorId, Instance};

use crate::table::Table;

/// Cost breakdown for one color.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorCosts {
    /// The color.
    pub color: ColorId,
    /// Jobs that arrived.
    pub arrived: u64,
    /// Jobs executed.
    pub executed: u64,
    /// Jobs dropped.
    pub dropped: u64,
    /// Reconfigurations *to* this color.
    pub reconfigs_to: u64,
}

impl ColorCosts {
    /// The cost attributable to this color at reconfiguration price Δ.
    pub fn cost(&self, delta: u64) -> u64 {
        delta * self.reconfigs_to + self.dropped
    }
}

/// The single attribution rule, as a [`Recorder`]: it folds each event
/// into its color's [`ColorCosts`] as the run emits it, so attributing a
/// run holds one row per color and never the event stream. Used by
/// [`crate::run_report`], `rrs-cli attribute`, `run --metrics-out` and
/// `report --run`, and (through [`per_color_from_events`]) saved traces.
#[derive(Clone, Debug, Default)]
pub struct CostFold {
    per: Vec<ColorCosts>,
}

impl CostFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attribution in id order: one row per color of `inst`, and one
    /// per higher id an event named (a trace from another instance).
    pub fn finish(mut self, inst: &Instance) -> Vec<ColorCosts> {
        self.grow(inst.colors.len());
        self.per
    }

    fn grow(&mut self, len: usize) {
        for i in self.per.len()..len {
            let color = ColorId(i as u32);
            self.per.push(ColorCosts {
                color,
                arrived: 0,
                executed: 0,
                dropped: 0,
                reconfigs_to: 0,
            });
        }
    }

    fn row(&mut self, color: ColorId) -> &mut ColorCosts {
        self.grow(color.index() + 1);
        &mut self.per[color.index()]
    }
}

impl Recorder for CostFold {
    fn on_drop(&mut self, _round: u64, color: ColorId, count: u64) {
        self.row(color).dropped += count;
    }
    fn on_arrive(&mut self, _round: u64, color: ColorId, count: u64) {
        self.row(color).arrived += count;
    }
    fn on_reconfig(&mut self, _round: u64, _mini: u32, _location: usize, _from: Slot, to: Slot) {
        if let Some(color) = to {
            self.row(color).reconfigs_to += 1;
        }
    }
    fn on_execute(&mut self, _round: u64, _mini: u32, color: ColorId, count: u64) {
        self.row(color).executed += count;
    }
}

/// Attribute a saved trace's events to the colors of `inst` by the
/// [`CostFold`] rule, for the CLI's saved-trace `report` mode.
pub fn per_color_from_events<'a>(
    inst: &Instance,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> Vec<ColorCosts> {
    let mut fold = CostFold::new();
    for e in events {
        match *e {
            TraceEvent::Drop { round, color, count } => fold.on_drop(round, color, count),
            TraceEvent::Arrive { round, color, count } => fold.on_arrive(round, color, count),
            TraceEvent::Reconfig { round, mini, location, from, to } => {
                fold.on_reconfig(round, mini, location, from, to);
            }
            TraceEvent::Execute { round, mini, color, count } => {
                fold.on_execute(round, mini, color, count);
            }
        }
    }
    fold.finish(inst)
}

/// Render an attribution as a table sorted by descending cost.
pub fn attribution_table(title: &str, delta: u64, mut per: Vec<ColorCosts>) -> Table {
    per.sort_by_key(|c| std::cmp::Reverse(c.cost(delta)));
    let mut t =
        Table::new(title, &["color", "arrived", "executed", "dropped", "reconfigs_to", "cost"]);
    for c in per {
        t.row(vec![
            c.color.to_string(),
            c.arrived.to_string(),
            c.executed.to_string(),
            c.dropped.to_string(),
            c.reconfigs_to.to_string(),
            c.cost(delta).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::DeltaLruEdf;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    fn attribute(inst: &Instance) -> Vec<ColorCosts> {
        crate::run::run_report("", inst, 4, &mut DeltaLruEdf::new()).per_color
    }

    fn two_color_instance() -> Instance {
        let mut b = InstanceBuilder::new(2);
        let busy = b.color(4);
        let starved = b.color(4);
        for blk in 0..4 {
            b.arrive(blk * 4, busy, 4);
        }
        b.arrive(0, starved, 1); // below Δ: never eligible, always dropped
        b.build()
    }

    #[test]
    fn attribution_sums_to_run_totals() {
        let inst = two_color_instance();
        let per = attribute(&inst);
        let out = Simulator::new(&inst, 4).run(&mut DeltaLruEdf::new());
        assert_eq!(per.iter().map(|c| c.arrived).sum::<u64>(), out.arrived);
        assert_eq!(per.iter().map(|c| c.executed).sum::<u64>(), out.executed);
        assert_eq!(per.iter().map(|c| c.dropped).sum::<u64>(), out.dropped);
        assert_eq!(per.iter().map(|c| c.reconfigs_to).sum::<u64>(), out.cost.reconfigs);
        let total: u64 = per.iter().map(|c| c.cost(inst.delta)).sum();
        assert_eq!(total, out.total_cost());
    }

    #[test]
    fn starved_color_is_drop_attributed() {
        let inst = two_color_instance();
        let per = attribute(&inst);
        let starved = per[1];
        assert_eq!(starved.dropped, 1);
        assert_eq!(starved.reconfigs_to, 0);
        let busy = per[0];
        assert_eq!(busy.dropped, 0);
        assert_eq!(busy.reconfigs_to, 2);
    }

    #[test]
    fn table_sorted_by_cost() {
        let inst = two_color_instance();
        let per = attribute(&inst);
        let t = attribution_table("attribution", inst.delta, per);
        let first: u64 = t.cell(0, "cost").unwrap().parse().unwrap();
        let second: u64 = t.cell(1, "cost").unwrap().parse().unwrap();
        assert!(first >= second);
    }
}
