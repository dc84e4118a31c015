//! The commit-progress watchdog behind per-run budgets.
//!
//! [`CommitWatchdog`] enforces a [`RunBudget`] over a running simulation:
//! a hard cycle cap plus a commit-progress check that converts a machine
//! advancing cycles without committing anything into a typed
//! [`BudgetBreach`] instead of an unbounded spin.

use crate::config::RunBudget;

/// A budget limit was exceeded mid-run. Carries enough diagnostic state to
/// report *where* the run died without re-running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The run reached its hard cycle cap.
    CycleCap {
        /// The configured [`RunBudget::max_cycles`] limit.
        limit: u64,
        /// Cycle at which the breach was observed (may exceed `limit` by
        /// one fast-forward span).
        at_cycle: u64,
        /// Instructions committed in the current measurement interval when
        /// the cap was hit.
        committed: u64,
    },
    /// The machine advanced a full livelock window without committing.
    Livelock {
        /// The configured [`RunBudget::livelock_window`].
        window: u64,
        /// Cycle at which the breach was observed.
        at_cycle: u64,
        /// The last checkpoint at which commit progress was still visible
        /// (checkpoint granularity: progress is sampled once per window,
        /// not per cycle).
        last_progress_cycle: u64,
        /// Committed-instruction count at the breach.
        committed: u64,
    },
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetBreach::CycleCap {
                limit,
                at_cycle,
                committed,
            } => write!(
                f,
                "cycle budget exhausted: limit {limit}, at cycle {at_cycle}, \
                 {committed} instructions committed"
            ),
            BudgetBreach::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            } => write!(
                f,
                "livelock: no commit progress for {window} cycles \
                 (at cycle {at_cycle}, last progress checkpoint \
                 {last_progress_cycle}, {committed} committed)"
            ),
        }
    }
}

/// Enforces a [`RunBudget`] over a running simulation.
///
/// Constructed once per run and fed the clock through
/// [`CommitWatchdog::observe`]; the simulator's
/// [`run_cycles_budgeted`](crate::Simulator::run_cycles_budgeted) loop does
/// this after every step and the fast-forward jump that follows it. The watchdog is purely observational — it never
/// mutates the simulator — so a run that stays within budget is
/// bit-identical to an unbudgeted run.
///
/// The hot path is one `u64` compare: the commit counters are only summed
/// at checkpoint cycles (the next budget deadline), never per cycle.
#[derive(Debug, Clone)]
pub struct CommitWatchdog {
    budget: RunBudget,
    last_committed: u64,
    last_progress_cycle: u64,
    livelock_deadline: u64,
    next_check: u64,
}

impl CommitWatchdog {
    /// Creates a watchdog for one run. Cycle numbering is expected to
    /// start at 0 (a fresh or reset simulator) and increase monotonically
    /// across the run's warm-up and measurement phases.
    pub fn new(budget: RunBudget) -> Self {
        let livelock_deadline = budget.livelock_window.unwrap_or(u64::MAX);
        let mut w = CommitWatchdog {
            budget,
            last_committed: 0,
            last_progress_cycle: 0,
            livelock_deadline,
            next_check: 0,
        };
        w.update_next_check();
        w
    }

    fn update_next_check(&mut self) {
        self.next_check = self
            .budget
            .max_cycles
            .unwrap_or(u64::MAX)
            .min(self.livelock_deadline);
    }

    /// Feeds one observation: the current cycle and a lazily-computed
    /// total of committed instructions. The closure is only invoked on
    /// checkpoint cycles, so passing `|| sim.committed_total()` costs a
    /// single compare on nearly every call.
    ///
    /// Commit counters may reset between observations (statistics resets
    /// between warm-up and measurement): any *change* in the total counts
    /// as progress.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetBreach`] the observation triggered, if any.
    #[inline]
    pub fn observe(
        &mut self,
        now: u64,
        committed: impl FnOnce() -> u64,
    ) -> Result<(), BudgetBreach> {
        if now < self.next_check {
            return Ok(());
        }
        self.check(now, committed())
    }

    #[cold]
    fn check(&mut self, now: u64, committed: u64) -> Result<(), BudgetBreach> {
        if let Some(limit) = self.budget.max_cycles {
            if now >= limit {
                return Err(BudgetBreach::CycleCap {
                    limit,
                    at_cycle: now,
                    committed,
                });
            }
        }
        if let Some(window) = self.budget.livelock_window {
            if now >= self.livelock_deadline {
                if committed == self.last_committed {
                    return Err(BudgetBreach::Livelock {
                        window,
                        at_cycle: now,
                        last_progress_cycle: self.last_progress_cycle,
                        committed,
                    });
                }
                self.last_committed = committed;
                self.last_progress_cycle = now;
                self.livelock_deadline = now.saturating_add(window);
            }
        }
        self.update_next_check();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobin;
    use crate::{SimConfig, Simulator};
    use smt_workloads::spec;

    fn sim(benches: &[&str]) -> Simulator {
        let profiles: Vec<_> = benches.iter().map(|b| spec::profile(b).unwrap()).collect();
        Simulator::new(
            SimConfig::baseline(benches.len()),
            &profiles,
            RoundRobin::default(),
            7,
        )
    }

    #[test]
    fn unlimited_budget_never_breaches() {
        let mut w = CommitWatchdog::new(RunBudget::unlimited());
        for now in 0..100_000u64 {
            assert!(w.observe(now, || 0).is_ok());
        }
    }

    #[test]
    fn cycle_cap_trips_at_the_limit() {
        let mut w = CommitWatchdog::new(RunBudget {
            max_cycles: Some(500),
            livelock_window: None,
        });
        for now in 0..500u64 {
            assert!(w.observe(now, || now * 2).is_ok(), "cycle {now}");
        }
        match w.observe(500, || 999) {
            Err(BudgetBreach::CycleCap {
                limit,
                at_cycle,
                committed,
            }) => {
                assert_eq!(limit, 500);
                assert_eq!(at_cycle, 500);
                assert_eq!(committed, 999);
            }
            other => panic!("expected CycleCap, got {other:?}"),
        }
    }

    #[test]
    fn livelock_trips_after_one_silent_window() {
        let mut w = CommitWatchdog::new(RunBudget {
            max_cycles: None,
            livelock_window: Some(100),
        });
        // Progress through three windows, then stall.
        for now in 0..300u64 {
            assert!(w.observe(now, || now).is_ok(), "cycle {now}");
        }
        for now in 300..400u64 {
            assert!(w.observe(now, || 300).is_ok(), "cycle {now}");
        }
        let err = w.observe(400, || 300).unwrap_err();
        match err {
            BudgetBreach::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                ..
            } => {
                assert_eq!(window, 100);
                assert_eq!(at_cycle, 400);
                assert_eq!(last_progress_cycle, 300);
            }
            other => panic!("expected Livelock, got {other:?}"),
        }
        assert!(!format!("{err}").is_empty(), "Display renders");
    }

    #[test]
    fn stat_resets_count_as_progress() {
        // reset_stats drops the commit counters between warm-up and
        // measurement; any *change* (including a drop) is progress.
        let mut w = CommitWatchdog::new(RunBudget {
            max_cycles: None,
            livelock_window: Some(50),
        });
        assert!(w.observe(50, || 40).is_ok(), "40 committed in window one");
        assert!(w.observe(100, || 3).is_ok(), "counter reset mid-window");
        assert!(w.observe(150, || 7).is_ok());
    }

    #[test]
    fn budgeted_run_is_bit_identical_to_unbudgeted() {
        // The whole point of observational budgets: a run that stays in
        // budget must not perturb the simulation by a single bit.
        let mut plain = sim(&["gzip", "mcf"]);
        plain.run_cycles(20_000);
        let mut budgeted = sim(&["gzip", "mcf"]);
        let mut w = CommitWatchdog::new(RunBudget::default());
        budgeted
            .run_cycles_budgeted(20_000, &mut w)
            .expect("default budget never trips a healthy run");
        assert_eq!(
            plain.result(),
            budgeted.result(),
            "budget observation drifted the run"
        );
    }

    #[test]
    fn budgeted_run_reports_a_livelock_on_a_fresh_machine() {
        // A 1-cycle window can never see a commit (the commit stage runs
        // before fetch, so cycle 0 commits nothing on an empty machine):
        // the budgeted loop must return the breach instead of running on.
        let mut s = sim(&["gzip"]);
        let mut w = CommitWatchdog::new(RunBudget {
            max_cycles: None,
            livelock_window: Some(1),
        });
        let err = s.run_cycles_budgeted(10_000, &mut w).unwrap_err();
        assert!(
            matches!(err, BudgetBreach::Livelock { .. }),
            "expected livelock, got {err:?}"
        );
        assert!(s.now() < 10_000, "run must stop early");
    }
}
