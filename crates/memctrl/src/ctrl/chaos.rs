//! The chaos harness: fault actions fired as the committed-write count
//! crosses a plan's trigger points.
//!
//! Bank lanes note each committed write address while a plan is
//! installed; after every bank operation the controller hands them to
//! [`MemoryController::drain_commits`], which polls the plan once per
//! commit. Operations complete in one global `(busy_until, bank)` order,
//! so the plan's shared victim draws happen in a well-defined order.

use sdpcm_engine::Cycle;
use sdpcm_pcm::geometry::{BankId, LineAddr, RowId, LINES_PER_ROW};
use sdpcm_pcm::wear::HardErrorModel;
use sdpcm_wd::chaos::{ChaosAction, FaultEvent};

use super::MemoryController;

/// Committed-write addresses remembered as chaos-burst victim
/// candidates.
const RECENT_WRITES_CAP: usize = 64;

impl MemoryController {
    /// Hands a lane's freshly committed write addresses to the chaos
    /// harness, polling the fault plan once per commit.
    pub(super) fn drain_commits(&mut self, bank: usize, at: Cycle) {
        if self.lanes[bank].recent_commits.is_empty() {
            return;
        }
        let commits = std::mem::take(&mut self.lanes[bank].recent_commits);
        for addr in commits {
            self.recent_writes.push_back(addr);
            while self.recent_writes.len() > RECENT_WRITES_CAP {
                self.recent_writes.pop_front();
            }
            self.apply_chaos(at);
        }
    }

    /// Drains every fault action due at the current write count.
    fn apply_chaos(&mut self, at: Cycle) {
        let committed: u64 = self.lanes.iter().map(|l| l.stats.writes.get()).sum();
        let actions = match &mut self.chaos {
            Some(engine) => engine.poll(committed),
            None => return,
        };
        for action in actions {
            self.execute_chaos(action, committed, at);
        }
    }

    /// Applies one fault action to the device or the lane context and
    /// logs it.
    fn execute_chaos(&mut self, action: ChaosAction, committed: u64, at: Cycle) {
        match action {
            ChaosAction::BeginStorm { mult } => {
                if self.sh.injector.set_storm(mult).is_err() {
                    // ChaosPlan::new validated the multiplier; reaching
                    // here means the plan was corrupted in flight.
                    self.lanes[0].note_anomaly("chaos storm multiplier went invalid");
                    self.anomaly_pending = true;
                    return;
                }
            }
            ChaosAction::EndStorm => self.sh.injector.clear_storm(),
            ChaosAction::PlantStuckBurst {
                lines,
                cells_per_line,
            } => {
                for _ in 0..lines {
                    let victim = if self.recent_writes.is_empty() {
                        LineAddr {
                            bank: BankId(self.chaos_rng.below(self.lanes.len() as u64) as u16),
                            row: RowId(
                                self.chaos_rng
                                    .below(u64::from(self.sh.geometry.rows_per_bank()))
                                    as u32,
                            ),
                            slot: self.chaos_rng.below(LINES_PER_ROW as u64) as u8,
                        }
                    } else {
                        let i = self.chaos_rng.index(self.recent_writes.len());
                        self.recent_writes[i]
                    };
                    if self.lanes[victim.bank.0 as usize]
                        .salvaged
                        .contains_key(&victim)
                    {
                        continue;
                    }
                    for _ in 0..cells_per_line {
                        let bit = self.chaos_rng.below(512) as u16;
                        let stuck = self.chaos_rng.chance(0.5);
                        self.store
                            .lane_mut(victim.bank.0)
                            .plant_hard_error(victim, bit, stuck);
                    }
                }
            }
            ChaosAction::SetAge { lifetime_fraction } => {
                let model = self
                    .sh
                    .hard_plan
                    .map_or_else(HardErrorModel::default, |(m, _)| m);
                self.sh.hard_plan = Some((model, lifetime_fraction));
            }
        }
        let fault_lane = &mut self.lanes[0];
        fault_lane.stats.fault_events.inc();
        self.fault_log.push(FaultEvent {
            at_write: committed,
            at_cycle: at.0,
            action,
        });
    }
}
