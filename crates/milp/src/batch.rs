//! Warm-started objective sweeps over one constraint skeleton.
//!
//! The certifier's dominant query pattern is "one model, many objectives":
//! each `LpRelaxY`/`LpRelaxX` sub-problem minimizes *and* maximizes several
//! expressions over the identical constraint set. A cold simplex solve pays
//! phase 1 (driving artificial variables out of every equality row) each
//! time, even though feasibility does not depend on the objective at all.
//! [`BatchSolver`] amortizes that: the first solve runs cold and snapshots
//! its final [`Basis`]; each subsequent solve restores the snapshot — already
//! primal feasible — and reoptimizes phase 2 only. Whenever a restore cannot
//! complete (singular refactorization, stale snapshot, numerical trouble),
//! the solve transparently falls back — a stale cross-sweep slot first to
//! the sweep's last final basis, everything else to a cold solve — so
//! results never depend on whether a warm start succeeded.
//!
//! Mixed-integer models are accepted for uniformity but always solved cold
//! through branch-and-bound (warm-starting a B&B tree is out of scope); the
//! continuous/integer dispatch matches [`Model::solve_with`] exactly.

use crate::error::SolveError;
use crate::model::{Model, Sense};
use crate::options::SolveOptions;
use crate::simplex::{self, Basis, Resident, ResolveOutcome, WarmResidentOutcome};
use crate::{branch_bound, LinExpr, Solution};

/// Work counters for one [`BatchSolver`]'s lifetime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Objectives solved (in any way).
    pub solves: u64,
    /// Solves completed from a restored basis (phase 1 skipped).
    pub warm_hits: u64,
    /// Rejected warm attempts, at most one per solve: a slot or chain
    /// restore that no longer fits. The solve then either reoptimizes from
    /// the sweep's last final basis (also counted in
    /// [`BatchStats::warm_hits`]) or runs cold.
    pub warm_misses: u64,
    /// Solves that ran cold because no snapshot was available (the first
    /// solve of every sweep, MILP solves, and everything after a failure).
    pub cold_solves: u64,
    /// Total simplex pivots across all solves, *including* the pivots burned
    /// by warm attempts that were later rejected (that work is real even
    /// though its result was discarded).
    pub pivots: u64,
    /// Estimated pivots avoided by warm-starting: for each warm hit, the
    /// pivot count of the most recent *cold* solve on this skeleton minus
    /// the warm solve's own pivots, saturating at zero. An estimate — the
    /// true counterfactual would require solving cold again.
    pub pivots_saved: u64,
    /// Warm hits whose basis came from a caller-provided cross-sweep slot
    /// ([`BatchSolver::solve_slot`]) rather than this sweep's own previous
    /// solve. Every seed hit is also counted in [`BatchStats::warm_hits`].
    pub seed_hits: u64,
}

impl BatchStats {
    /// Accumulates another counter set.
    pub fn absorb(&mut self, other: BatchStats) {
        self.solves += other.solves;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.cold_solves += other.cold_solves;
        self.pivots += other.pivots;
        self.pivots_saved += other.pivots_saved;
        self.seed_hits += other.seed_hits;
    }
}

/// Sweeps a list of objectives over one [`Model`] skeleton, warm-starting
/// each solve from the previous one's optimal basis.
///
/// ```
/// use itne_milp::{BatchSolver, Cmp, Model, Sense, SolveOptions};
///
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 10.0);
/// let y = m.add_var(0.0, 10.0);
/// m.add_constraint(x + y, Cmp::Le, 6.0);
/// m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
///
/// let opts = SolveOptions::default();
/// let mut batch = BatchSolver::new(&mut m);
/// let hi = batch.solve(Sense::Maximize, 3.0 * x + 2.0 * y, &opts).unwrap();
/// let lo = batch.solve(Sense::Minimize, 3.0 * x + 2.0 * y, &opts).unwrap();
/// assert!((hi.objective - 15.0).abs() < 1e-6);
/// assert!((lo.objective - 0.0).abs() < 1e-6);
/// assert_eq!(batch.stats().warm_hits, 1); // the second solve reused the basis
/// ```
pub struct BatchSolver<'m> {
    model: &'m mut Model,
    /// The previous solve's live factorized tableau. Reoptimizing it in
    /// place is strictly cheaper than restoring a [`crate::Basis`] snapshot
    /// (no `B⁻¹` refactorization per solve); snapshots carry warm starts
    /// *across* sweeps ([`BatchSolver::solve_slot`]).
    resident: Option<Resident>,
    /// The final basis of this sweep's most recent [`BatchSolver::solve_slot`]
    /// that stored one. It is optimal for another objective over this very
    /// model, so it is primal feasible here: the restore to try when a
    /// slot's basis no longer fits.
    last_final: Option<Basis>,
    /// Pivot count of the most recent cold solve, the baseline for
    /// [`BatchStats::pivots_saved`].
    last_cold_pivots: u64,
    stats: BatchStats,
}

impl<'m> BatchSolver<'m> {
    /// Wraps a model skeleton. The model's constraints and bounds must stay
    /// fixed for the sweep's duration (the borrow enforces exclusivity); the
    /// objective is overwritten by every [`BatchSolver::solve`].
    pub fn new(model: &'m mut Model) -> Self {
        BatchSolver {
            model,
            resident: None,
            last_final: None,
            last_cold_pivots: 0,
            stats: BatchStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Flattens the current resident factorization to a restorable [`Basis`]
    /// snapshot for cross-sweep warm starts ([`BatchSolver::solve_slot`]).
    /// `None` when no resident is held or the final basis still contains an
    /// artificial column (redundant equality rows).
    pub fn snapshot(&self) -> Option<Basis> {
        self.resident.as_ref().and_then(Resident::snapshot)
    }

    /// Read-only view of the model being swept — the exact problem data the
    /// most recent solve's certificate refers to (including the objective
    /// that solve installed).
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Sets `sense expr` as the objective and solves, warm-starting from the
    /// previous solve's basis when one is available (and
    /// [`SolveOptions::warm_start`] is on): [`BatchSolver::solve_slot`] with
    /// an empty slot.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; identical failure modes to [`Model::solve_with`].
    pub fn solve(
        &mut self,
        sense: Sense,
        expr: impl Into<LinExpr>,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        self.solve_slot(sense, expr, opts, &mut None)
    }

    /// Sets `sense expr` as the objective and solves it with a persistent
    /// per-objective basis `slot` spanning sweeps: the solve starts from the
    /// basis the *previous sweep* stored for this same objective (a
    /// cross-sweep warm start, counted in [`BatchStats::seed_hits`]) and
    /// writes its own final basis back for the next one. An empty slot
    /// chains from this sweep's previous solve, or solves cold.
    ///
    /// With a live resident the restore reuses the compiled skeleton and
    /// working arrays and pays only a basis refactorization; the sweep's
    /// first solve rebuilds the engine from the snapshot. A slot stored
    /// under another δ or weight version may no longer be primal feasible.
    /// When restoring it into the live resident is rejected, the solve
    /// restores this sweep's most recent final basis instead — optimal for
    /// another objective over the same model, hence feasible — and
    /// reoptimizes phase 2 only (one warm miss plus one warm hit). Any other
    /// rejection falls back to a cold solve, so the slot is advisory and
    /// never affects results, only the work counters.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; identical failure modes to [`Model::solve_with`].
    pub fn solve_slot(
        &mut self,
        sense: Sense,
        expr: impl Into<LinExpr>,
        opts: &SolveOptions,
        slot: &mut Option<Basis>,
    ) -> Result<Solution, SolveError> {
        self.model.set_objective(sense, expr);
        self.stats.solves += 1;
        self.model.validate()?;

        if self.model.num_integers() > 0 {
            // Mixed models: no warm start, same dispatch as `solve_with`.
            self.stats.cold_solves += 1;
            let sol = branch_bound::solve_milp(self.model, opts)?;
            self.stats.pivots += sol.stats.pivots;
            return Ok(sol);
        }

        // A resident factorization belongs to the engine that ran the cold
        // solve; if the caller switches `opts.engine` mid-sweep (e.g. for a
        // differential run), answering from the old engine's resident would
        // silently compare an engine against itself. Drop it and solve cold
        // with the engine actually requested.
        if self
            .resident
            .as_ref()
            .is_some_and(|r| r.engine() != opts.engine)
        {
            self.resident = None;
        }

        if opts.warm_start {
            if let Some(warm) = slot.as_ref() {
                // Slot restore against the live engine: skeleton and working
                // arrays are reused, only the basis is refactorized.
                if let Some(resident) = &mut self.resident {
                    let outcome = match resident.resolve_from(self.model, opts, warm) {
                        Ok(ResolveOutcome::Solved(sol)) => {
                            self.stats.seed_hits += 1;
                            Ok(ResolveOutcome::Solved(sol))
                        }
                        Ok(ResolveOutcome::Rejected { wasted_pivots }) => {
                            // A stale slot: a full rebuild from it would
                            // reject for the same reason, but the sweep's
                            // last final basis fits this model. The engine
                            // may be restored into again after a rejection.
                            self.stats.warm_misses += 1;
                            self.stats.pivots += wasted_pivots;
                            match &self.last_final {
                                Some(last) => resident.resolve_from(self.model, opts, last),
                                None => Ok(ResolveOutcome::Rejected { wasted_pivots: 0 }),
                            }
                        }
                        Err(e) => Err(e),
                    };
                    match outcome {
                        Ok(ResolveOutcome::Solved(sol)) => {
                            self.count_warm_hit(&sol);
                            self.store_slot(slot);
                            return Ok(sol);
                        }
                        Ok(ResolveOutcome::Rejected { wasted_pivots }) => {
                            self.stats.pivots += wasted_pivots;
                            self.resident = None;
                        }
                        Err(e) => {
                            self.resident = None;
                            return Err(e);
                        }
                    }
                } else {
                    // First solve of the sweep: rebuild the engine once from
                    // the stored snapshot; later slot solves rebase it.
                    match simplex::solve_lp_warm_resident(self.model, opts, warm)? {
                        WarmResidentOutcome::Solved(sol, resident) => {
                            self.stats.warm_hits += 1;
                            self.stats.seed_hits += 1;
                            self.stats.pivots += sol.stats.pivots;
                            self.resident = resident;
                            self.store_slot(slot);
                            return Ok(sol);
                        }
                        WarmResidentOutcome::Rejected => {
                            self.stats.warm_misses += 1;
                        }
                    }
                }
            } else if let Some(resident) = &mut self.resident {
                // Empty slot: chain from the previous solve.
                match resident.resolve(self.model, opts) {
                    Ok(ResolveOutcome::Solved(sol)) => {
                        self.count_warm_hit(&sol);
                        self.store_slot(slot);
                        return Ok(sol);
                    }
                    Ok(ResolveOutcome::Rejected { wasted_pivots }) => {
                        self.stats.warm_misses += 1;
                        self.stats.pivots += wasted_pivots;
                        self.resident = None;
                    }
                    Err(e) => {
                        self.resident = None;
                        return Err(e);
                    }
                }
            }
        }

        self.stats.cold_solves += 1;
        match simplex::solve_lp_resident(self.model, opts) {
            Ok((sol, resident)) => {
                self.stats.pivots += sol.stats.pivots;
                self.last_cold_pivots = sol.stats.pivots;
                self.resident = if opts.warm_start { resident } else { None };
                self.store_slot(slot);
                Ok(sol)
            }
            Err(e) => {
                self.resident = None;
                Err(e)
            }
        }
    }

    /// Counts a solve answered by reoptimizing a live resident.
    fn count_warm_hit(&mut self, sol: &Solution) {
        self.stats.warm_hits += 1;
        self.stats.pivots += sol.stats.pivots;
        self.stats.pivots_saved += self.last_cold_pivots.saturating_sub(sol.stats.pivots);
    }

    /// Writes the current resident's final basis into `slot` for the next
    /// sweep, keeping a copy as this sweep's rescue basis
    /// (`last_final`). A basis that cannot be snapshotted (artificial still
    /// basic) leaves the previous slot content in place — it is still the
    /// best known start for this objective.
    fn store_slot(&mut self, slot: &mut Option<Basis>) {
        if let Some(b) = self.snapshot() {
            self.last_final = Some(b.clone());
            *slot = Some(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cmp;

    fn skeleton() -> (Model, crate::VarId, crate::VarId) {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.add_constraint(x - y, Cmp::Ge, -5.0);
        (m, x, y)
    }

    #[test]
    fn sweep_matches_cold_solves() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions::default();
        let objectives: Vec<(Sense, LinExpr)> = vec![
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Minimize, 3.0 * x + 2.0 * y),
            (Sense::Maximize, 1.0 * y - 1.0 * x),
            (Sense::Minimize, 1.0 * y),
            (Sense::Maximize, 1.0 * x),
        ];

        let cold: Vec<f64> = objectives
            .iter()
            .map(|(s, e)| {
                let mut fresh = m.clone();
                fresh.set_objective(*s, e.clone());
                fresh.solve().expect("cold solves").objective
            })
            .collect();

        let mut batch = BatchSolver::new(&mut m);
        let warm: Vec<f64> = objectives
            .into_iter()
            .map(|(s, e)| {
                batch
                    .solve(s, e, &opts)
                    .expect("warm sweep solves")
                    .objective
            })
            .collect();

        for (w, c) in warm.iter().zip(&cold) {
            assert!((w - c).abs() < 1e-9, "warm {w} vs cold {c}");
        }
        let stats = batch.stats();
        assert_eq!(stats.solves, 5);
        assert_eq!(stats.cold_solves + stats.warm_hits + stats.warm_misses, 5);
        assert!(stats.warm_hits >= 4, "expected warm hits, got {stats:?}");
    }

    #[test]
    fn dense_engine_sweep_still_warm_starts() {
        // The dense resident tableau stays available behind
        // `SolveOptions::engine` for differential testing; its sweep path
        // must keep warm-starting and agreeing with cold solves.
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            engine: crate::Engine::Dense,
            ..Default::default()
        };
        let cold_hi = {
            let mut fresh = m.clone();
            fresh.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
            fresh.solve_with(&opts).expect("cold solves").objective
        };
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch
            .solve(Sense::Maximize, 3.0 * x + 2.0 * y, &opts)
            .unwrap();
        let lo = batch
            .solve(Sense::Minimize, 3.0 * x + 2.0 * y, &opts)
            .unwrap();
        assert!((hi.objective - cold_hi).abs() < 1e-9);
        assert!(lo.objective.abs() < 1e-9);
        assert_eq!(batch.stats().warm_hits, 1);
    }

    #[test]
    fn engine_switch_mid_sweep_discards_resident() {
        // Flipping `opts.engine` between solves must not answer from the
        // previous engine's resident — the differential-testing use case
        // depends on the requested engine actually running.
        let (mut m, x, y) = skeleton();
        let sparse = SolveOptions::default();
        let dense = SolveOptions {
            engine: crate::Engine::Dense,
            ..Default::default()
        };
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, x + y, &sparse).unwrap();
        batch.solve(Sense::Minimize, x + y, &dense).unwrap();
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2, "engine switch must re-solve cold");
        assert_eq!(stats.warm_hits, 0);
        // The switched engine's own resident chains from there.
        batch.solve(Sense::Maximize, 1.0 * x, &dense).unwrap();
        assert_eq!(batch.stats().warm_hits, 1);
    }

    /// Cross-sweep slots: a sweep stores each objective's final basis, and a
    /// later sweep over an identical model restarts every objective from its
    /// slot — the first solve rebuilding the engine from the snapshot, the
    /// second restoring into the live core — with no pivots and the same
    /// bits. A slot from a differently shaped model is rejected, and the
    /// solve reoptimizes from the sweep's last final basis instead.
    #[test]
    fn solve_slot_replays_stored_bases_across_sweeps() {
        let (m, x, y) = skeleton();
        let opts = SolveOptions::default();
        let objectives = [
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Maximize, 1.0 * y - 1.0 * x),
        ];
        let mut slots: [Option<Basis>; 2] = [None, None];

        let mut first_model = m.clone();
        let mut first = BatchSolver::new(&mut first_model);
        let want: Vec<Solution> = objectives
            .iter()
            .zip(&mut slots)
            .map(|((sense, e), slot)| first.solve_slot(*sense, e.clone(), &opts, slot).unwrap())
            .collect();
        assert!(slots.iter().all(Option::is_some), "every slot stored");
        assert_eq!(first.stats().seed_hits, 0);

        let mut replay_model = m.clone();
        let mut replay = BatchSolver::new(&mut replay_model);
        for (((sense, e), slot), want) in objectives.iter().zip(&mut slots).zip(&want) {
            let got = replay.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
            assert_eq!(
                got.stats.pivots, 0,
                "a stored optimal basis needs no pivots"
            );
            assert_eq!(got.objective.to_bits(), want.objective.to_bits());
            let bits = |s: &Solution| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want));
        }
        let stats = replay.stats();
        assert_eq!(stats.seed_hits, 2, "{stats:?}");
        assert_eq!(stats.warm_hits, 2, "{stats:?}");
        assert_eq!((stats.cold_solves, stats.warm_misses), (0, 0), "{stats:?}");

        // A slot from a model with an extra row cannot restore here; the
        // sweep's last final basis answers warm instead of a cold solve.
        let mut other = m.clone();
        other.add_constraint(1.0 * x, Cmp::Le, 4.0);
        let mut slot = None;
        BatchSolver::new(&mut other)
            .solve_slot(Sense::Maximize, 1.0 * x, &opts, &mut slot)
            .unwrap();
        assert!(slot.is_some());
        let got = replay
            .solve_slot(Sense::Maximize, 1.0 * x, &opts, &mut slot)
            .unwrap();
        assert!((got.objective - 4.5).abs() < 1e-9, "{}", got.objective);
        let stats = replay.stats();
        assert_eq!(stats.warm_misses, 1, "{stats:?}");
        assert_eq!(stats.warm_hits, 3, "{stats:?}");
        assert_eq!(stats.cold_solves, 0, "{stats:?}");
        assert_eq!(stats.seed_hits, 2, "{stats:?}");
    }

    /// A bound tightened in place between sweeps, as a δ shrink does, makes
    /// a stored optimum infeasible. Its restore is rejected, and the solve
    /// reoptimizes phase 2 from the basis the sweep's previous solve ended
    /// at, which fits the tightened model, instead of solving cold.
    #[test]
    fn stale_slot_reoptimizes_from_the_sweeps_last_basis() {
        let (m, x, y) = skeleton();
        let opts = SolveOptions::default();
        // Optima (3, 3) and (0.5, 5.5).
        let objectives = [
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Maximize, 1.0 * y),
        ];
        let mut slots: [Option<Basis>; 2] = [None, None];
        let mut first_model = m.clone();
        let mut first = BatchSolver::new(&mut first_model);
        for ((sense, e), slot) in objectives.iter().zip(&mut slots) {
            first.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
        }
        assert!(slots.iter().all(Option::is_some), "every slot stored");

        // y ≤ 5 keeps (3, 3) but cuts off (0.5, 5.5).
        let mut tight = m.clone();
        tight.set_bounds(y, 0.0, 5.0);
        let cold: Vec<f64> = objectives
            .iter()
            .map(|(sense, e)| {
                let mut fresh = tight.clone();
                fresh.set_objective(*sense, e.clone());
                fresh.solve_with(&opts).unwrap().objective
            })
            .collect();
        let mut replay = BatchSolver::new(&mut tight);
        for (((sense, e), slot), cold) in objectives.iter().zip(&mut slots).zip(&cold) {
            let got = replay.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
            assert!(
                (got.objective - cold).abs() < 1e-9,
                "{} vs {cold}",
                got.objective
            );
        }
        let stats = replay.stats();
        assert_eq!(stats.warm_misses, 1, "{stats:?}");
        assert_eq!(stats.cold_solves, 0, "{stats:?}");
        assert_eq!((stats.warm_hits, stats.seed_hits), (2, 1), "{stats:?}");

        // The rescued solve stored its own final basis: a further sweep over
        // the tightened model replays both slots without a pivot.
        let mut again_model = tight.clone();
        let mut again = BatchSolver::new(&mut again_model);
        for ((sense, e), slot) in objectives.iter().zip(&mut slots) {
            let got = again.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
            assert_eq!(got.stats.pivots, 0);
        }
        let stats = again.stats();
        assert_eq!((stats.seed_hits, stats.warm_misses), (2, 0), "{stats:?}");
    }

    /// The dense engine's `resolve_from` always rejects, so its rescue does
    /// too and a slot restore there still goes cold (and answers correctly).
    #[test]
    fn dense_engine_slot_restores_solve_cold() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            engine: crate::Engine::Dense,
            ..Default::default()
        };
        let mut slot = None;
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap();
        let got = batch
            .solve_slot(Sense::Maximize, 3.0 * x + 2.0 * y, &opts, &mut slot)
            .unwrap();
        assert!((got.objective - 15.0).abs() < 1e-9, "{}", got.objective);
        let got = batch
            .solve_slot(Sense::Maximize, 1.0 * y, &opts, &mut slot)
            .unwrap();
        assert!((got.objective - 5.5).abs() < 1e-9, "{}", got.objective);
        let stats = batch.stats();
        assert_eq!(stats.warm_misses, 1, "{stats:?}");
        assert_eq!(stats.cold_solves, 2, "{stats:?}");
    }

    #[test]
    fn warm_start_disabled_runs_every_solve_cold() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            warm_start: false,
            ..Default::default()
        };
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, x + y, &opts).unwrap();
        batch.solve(Sense::Minimize, x + y, &opts).unwrap();
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.warm_hits, 0);
        assert_eq!(stats.warm_misses, 0);
    }

    #[test]
    fn integer_models_solve_cold_through_branch_and_bound() {
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        m.add_constraint(3.0 * a + 4.0 * b, Cmp::Le, 6.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch
            .solve(Sense::Maximize, 10.0 * a + 13.0 * b, &opts)
            .unwrap();
        assert!((hi.objective - 13.0).abs() < 1e-6);
        let lo = batch
            .solve(Sense::Minimize, 10.0 * a + 13.0 * b, &opts)
            .unwrap();
        assert!(lo.objective.abs() < 1e-9);
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.warm_hits, 0);
    }

    #[test]
    fn redundant_equality_rows_stay_warm() {
        // The duplicated hyperplane keeps a frozen artificial in the final
        // basis. A `Basis` snapshot cannot represent that (see
        // `BatchSolver::snapshot`), but the live resident tableau carries
        // the frozen artificial along, so the sweep still warm-starts — and
        // must still agree with `Model::solve`.
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0);
        let y = m.add_var(0.0, 5.0);
        m.add_constraint(x + y, Cmp::Eq, 4.0);
        m.add_constraint(2.0 * x + 2.0 * y, Cmp::Eq, 8.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap();
        let lo = batch.solve(Sense::Minimize, 1.0 * x, &opts).unwrap();
        assert!((hi.objective - 4.0).abs() < 1e-6);
        assert!(lo.objective.abs() < 1e-6);
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 1);
    }

    #[test]
    fn infeasible_skeleton_errors_on_every_solve() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x, Cmp::Ge, 3.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        for _ in 0..2 {
            assert_eq!(
                batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap_err(),
                SolveError::Infeasible
            );
        }
        assert_eq!(batch.stats().cold_solves, 2);
    }

    #[test]
    fn unbounded_objective_is_reported_warm_or_cold() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(y - x, Cmp::Le, 1.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        // Bounded objective first, to install a basis.
        batch.solve(Sense::Maximize, 1.0 * y, &opts).unwrap();
        assert_eq!(
            batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap_err(),
            SolveError::Unbounded
        );
    }
}
