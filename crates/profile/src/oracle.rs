//! Recording of sequentially-correct load values ("perfect prediction").
//!
//! Several experiments in the paper idealize value communication: the `O`
//! bars of Figure 2 perfectly forward the value needed by *every* load, the
//! Figure 6 study does so for loads above a dependence-frequency threshold,
//! and the `E` bars of Figure 9 do so for compiler-synchronized loads.
//!
//! The value a load *should* see is its value under sequential execution.
//! [`OracleRecorder`] captures, for every load executed inside a speculative
//! region, the sequence of values it reads — keyed by (region instance,
//! epoch, static id) with per-epoch occurrence order. The simulator replays
//! these values on matching dynamic loads; because a perfectly-predicted
//! execution never violates, it follows the sequential path and the replay
//! keys stay aligned.

use tls_ir::{FxHashMap, Sid};

use crate::interp::{ExecObserver, Interp, LoopUid, TraceState};

/// Identifies the load stream of one static load within one epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OracleKey {
    /// Ordinal of the region instance (counting every entry into any
    /// speculative region, in program order).
    pub region_ord: u64,
    /// Epoch index within the region instance.
    pub epoch: u64,
    /// Static id of the load.
    pub sid: Sid,
}

/// The recorded value streams.
#[derive(Clone, Debug, Default)]
pub struct ValueOracle {
    map: FxHashMap<OracleKey, Vec<i64>>,
}

impl ValueOracle {
    /// The `occurrence`-th value (0-based) the load reads in that epoch
    /// under sequential execution, if recorded.
    pub fn value(&self, key: OracleKey, occurrence: usize) -> Option<i64> {
        self.map.get(&key).and_then(|v| v.get(occurrence)).copied()
    }

    /// Number of recorded load streams (diagnostics).
    pub fn streams(&self) -> usize {
        self.map.len()
    }
}

/// Observer that builds a [`ValueOracle`]; run it over the *same module*
/// the simulator will execute (static ids must match).
pub struct OracleRecorder {
    /// Is loop `lu` a speculative region?
    is_region: Vec<bool>,
    /// Stack of active region instances: (ordinal, loop uid).
    active: Vec<(u64, LoopUid)>,
    next_ord: u64,
    oracle: ValueOracle,
}

impl OracleRecorder {
    /// Build a recorder for the interpreter's module.
    pub fn new(interp: &Interp<'_>) -> Self {
        Self {
            is_region: interp
                .loop_meta()
                .iter()
                .map(|m| m.region.is_some())
                .collect(),
            active: Vec::new(),
            next_ord: 0,
            oracle: ValueOracle::default(),
        }
    }

    /// Consume the recorder and return the oracle.
    pub fn finish(self) -> ValueOracle {
        self.oracle
    }
}

impl ExecObserver for OracleRecorder {
    fn on_load(&mut self, trace: &TraceState, sid: Sid, _addr: i64, value: i64) {
        let Some(&(region_ord, lu)) = self.active.last() else {
            return;
        };
        // The epoch index is the iteration of the region's loop instance.
        let Some(li) = trace.loops.iter().rev().find(|li| li.lu == lu) else {
            return;
        };
        self.oracle
            .map
            .entry(OracleKey {
                region_ord,
                epoch: li.iter,
                sid,
            })
            .or_default()
            .push(value);
    }

    fn on_loop_enter(&mut self, trace: &TraceState) {
        let li = trace.loops.last().expect("entered loop");
        if self.is_region[li.lu] {
            self.active.push((self.next_ord, li.lu));
            self.next_ord += 1;
        }
    }

    fn on_loop_exit(&mut self, _trace: &TraceState, closed: &crate::interp::LoopInstance) {
        if self.is_region[closed.lu] {
            let popped = self.active.pop();
            debug_assert!(popped.is_some(), "region exit without matching enter");
        }
    }
}

/// Record the value oracle of `module` in one sequential run.
///
/// # Errors
/// Propagates interpreter limits as [`crate::ExecError`].
pub fn record_oracle(module: &tls_ir::Module) -> Result<ValueOracle, crate::ExecError> {
    let mut interp = Interp::new(module, crate::InterpConfig::default());
    let mut rec = OracleRecorder::new(&interp);
    interp.run(&mut rec)?;
    Ok(rec.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, BlockId, FuncId, ModuleBuilder, RegionId, SpecRegion};

    /// Region loop: each epoch loads `acc` twice (two occurrences) and
    /// stores `acc + 1`.
    fn region_module() -> (tls_ir::Module, Sid) {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![5]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, v, w, c) = (fb.var("i"), fb.var("v"), fb.var("w"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 3);
        fb.br(c, body, exit);
        fb.switch_to(body);
        let ld = fb.load(v, acc, 0);
        let ld2_sid = fb.load(w, acc, 0);
        let _ = ld2_sid;
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, acc, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.module_mut().regions.push(SpecRegion {
            id: RegionId(0),
            func: FuncId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1), BlockId(2)],
            unroll: 1,
        });
        (mb.build().expect("valid"), ld)
    }

    #[test]
    fn records_per_epoch_value_streams() {
        let (m, ld) = region_module();
        let oracle = record_oracle(&m).expect("records");
        // Epoch 0 reads 5 (twice via two static loads), epoch 1 reads 6, …
        for epoch in 0..3u64 {
            let key = OracleKey {
                region_ord: 0,
                epoch,
                sid: ld,
            };
            assert_eq!(oracle.value(key, 0), Some(5 + epoch as i64));
            assert_eq!(oracle.value(key, 1), None); // one occurrence per sid
        }
        assert_eq!(oracle.streams(), 6); // 2 static loads × 3 epochs
                                         // Unknown keys are None.
        assert_eq!(
            oracle.value(
                OracleKey {
                    region_ord: 1,
                    epoch: 0,
                    sid: ld
                },
                0
            ),
            None
        );
    }

    #[test]
    fn loads_outside_regions_are_not_recorded() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("g", 1, vec![1]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let v = fb.var("v");
        fb.load(v, g, 0);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let oracle = record_oracle(&m).expect("records");
        assert_eq!(oracle.streams(), 0);
    }
}
