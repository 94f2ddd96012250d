//! The VnC write program: what each step of a [`WriteJob`] does to the
//! device.
//!
//! [`crate::writejob`] holds a job's data and its initial step list;
//! this module runs the steps on a bank lane. [`Lane::step_duration`]
//! prices the front step when the bank takes it up (an array write is
//! DIN-encoded and diffed then), and [`Lane::finish_step`] applies its
//! effects when the bank completes it, extending the program as
//! verify-and-correct demands: word-line fixes after the own-line check,
//! LazyCorrection's ECP records or corrections after each verification
//! read, and cascading verification after each correction (§3.2, §4.2).
//! Disturbance injection, ECP recording and first-touch hard-error
//! planting live here too.

use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::Cycle;
use sdpcm_pcm::ecp::EcpKind;
use sdpcm_pcm::geometry::LineAddr;
use sdpcm_pcm::line::DiffMask;
use sdpcm_pcm::wear::WriteClass;
use sdpcm_wd::din::DinFlags;

use crate::lane::Lane;
use crate::req::AccessKind;
use crate::writejob::{Side, Step, WriteJob};

impl Lane<'_, '_> {
    /// Computes the duration of the job's front step, performing the
    /// pure pre-computation (DIN encode + diff) for array writes.
    pub(crate) fn step_duration(&mut self, job: &mut WriteJob) -> Cycle {
        let t = self.sh.cfg.timing;
        let Some(step) = job.steps.front() else {
            self.ls
                .note_anomaly("write job scheduled with no remaining step");
            return Cycle(1);
        };
        match step {
            Step::PreRead(_) | Step::OwnVerify | Step::PostRead(_) | Step::CascadeVerify(_) => {
                t.read
            }
            Step::ArrayWrite => {
                let addr = job.entry.access.addr;
                let AccessKind::Write(plain) = job.entry.access.kind else {
                    self.ls
                        .note_anomaly("array-write step on a non-write access");
                    return t.read;
                };
                self.plant_hard(addr);
                let raw_old = self.store.raw_line(addr);
                let old_flags = DinFlags(self.store.din_flags(addr));
                let (encoded, new_flags) = self.sh.codec.encode(&plain, &raw_old, old_flags);
                let diff = DiffMask::between(&raw_old, &encoded);
                let dur = t.write_latency(&diff);
                job.diff = Some(diff);
                job.encoded = Some(encoded);
                job.new_flags = new_flags;
                dur
            }
            Step::OwnFix => t.correction_latency(job.pending_wl.len() as u32),
            Step::EcpWrite { .. } => t.reset_pulse,
            Step::Correction { cells, .. } => t.correction_latency(cells.len() as u32),
        }
    }

    /// Applies the side effects of the completed front step and extends
    /// the program as VnC demands.
    pub(crate) fn finish_step(&mut self, job: &mut WriteJob, at: Cycle) {
        let Some(step) = job.steps.pop_front() else {
            self.ls
                .note_anomaly("write job completed with no step to finish");
            return;
        };
        let t = self.sh.cfg.timing;
        let addr = job.entry.access.addr;
        match step {
            Step::PreRead(side) => {
                self.ls.stats.phases.pre_reads += t.read;
                self.ls.energy.charge_read(512, true);
                let data = self.sh.geometry.bitline_neighbors(addr)[side.idx()]
                    .map(|n| self.architectural_line(n));
                job.entry.pr_done[side.idx()] = true;
                job.entry.pr_buf[side.idx()] = data;
            }
            Step::ArrayWrite => {
                let (Some(diff), Some(encoded)) = (job.diff.take(), job.encoded.take()) else {
                    self.ls
                        .note_anomaly("array write lost its precomputed encoding");
                    job.steps.clear();
                    return;
                };
                let dur = t.write_latency(&diff);
                self.ls.stats.phases.array_writes += dur;
                self.ls
                    .energy
                    .charge_write(diff.set_count(), diff.reset_count(), false);
                self.store.apply_write(addr, &diff, WriteClass::Normal);
                self.store.refresh_hard_values(addr, &encoded);
                self.store.set_din_flags(addr, job.new_flags.0);
                // A normal write clears the line's own buffered WD errors
                // (LazyCorrection consolidation, §4.2).
                self.store.ecp_mut(addr).clear_disturb();
                job.committed = true;
                self.ls.stats.writes.inc();
                self.push_completion(&job.entry.access, at, None);
                // Disturbance injection.
                let wl = self.inject_for(addr, &diff, Some(&mut job.pending_wl));
                self.ls.stats.wl_errors.record(wl as u64);
                let neighbors = self.sh.geometry.bitline_neighbors(addr);
                for side in Side::BOTH {
                    if neighbors[side.idx()].is_some() {
                        self.ls
                            .stats
                            .bl_errors_per_neighbor
                            .record(self.ls.bl_hits[side.idx()].len() as u64);
                    }
                    job.injected[side.idx()].extend_from_slice(&self.ls.bl_hits[side.idx()]);
                }
                // Chaos bookkeeping: the controller drains these after
                // each completed operation (only while a plan is
                // installed).
                if self.sh.track_commits {
                    self.ls.recent_commits.push(addr);
                }
            }
            Step::OwnVerify => {
                self.ls.stats.phases.own_verifies += t.read;
                self.ls.energy.charge_read(512, true);
                if !job.pending_wl.is_empty() {
                    job.steps.push_front(Step::OwnFix);
                }
            }
            Step::OwnFix => {
                let _t = prof::timer(Site::CtrlCorrect);
                let cells = std::mem::take(&mut job.pending_wl);
                let dur = t.correction_latency(cells.len() as u32);
                self.ls.stats.phases.own_fixes += dur;
                let fix = DiffMask::reset_only_cells(&cells);
                self.ls.energy.charge_write(0, fix.reset_count(), true);
                self.store.apply_write(addr, &fix, WriteClass::WordlineFix);
                // The fix's RESET pulses disturb again.
                let _ = self.inject_for(addr, &fix, Some(&mut job.pending_wl));
                for side in Side::BOTH {
                    job.injected[side.idx()].extend_from_slice(&self.ls.bl_hits[side.idx()]);
                }
                if !job.pending_wl.is_empty() {
                    job.steps.push_front(Step::OwnFix);
                }
            }
            Step::PostRead(side) => {
                self.ls.stats.phases.post_reads += t.read;
                self.ls.stats.verification_ops.inc();
                self.ls.energy.charge_read(512, true);
                let Some(neighbor) = self.sh.geometry.bitline_neighbors(addr)[side.idx()] else {
                    return;
                };
                let new_errors = std::mem::take(&mut job.injected[side.idx()]);
                self.resolve_verification(job, neighbor, new_errors, at);
            }
            Step::CascadeVerify(line) => {
                self.ls.stats.phases.cascade_reads += t.read;
                self.ls.stats.verification_ops.inc();
                self.ls.stats.cascade_rounds.inc();
                self.ls.energy.charge_read(512, true);
                let new_errors = job.take_cascade(line);
                self.resolve_verification(job, line, new_errors, at);
            }
            Step::EcpWrite { line, cells } => {
                self.ls.stats.phases.ecp_writes += t.reset_pulse;
                self.record_ecp(line, &cells);
            }
            Step::Correction { line, cells } => {
                let _t = prof::timer(Site::CtrlCorrect);
                let dur = t.correction_latency(cells.len() as u32);
                self.ls.stats.phases.corrections += dur;
                self.ls.stats.correction_ops.inc();
                self.ls.stats.corrected_cells.add(cells.len() as u64);
                let fix = DiffMask::reset_only_cells(&cells);
                self.ls.energy.charge_write(0, fix.reset_count(), true);
                self.store.apply_write(line, &fix, WriteClass::Correction);
                self.store.ecp_mut(line).clear_disturb();
                // The correction's RESET pulses disturb the corrected
                // line's own word-line cells and its bit-line neighbours:
                // cascading verification (§3.2).
                let mut own_wl = Vec::new();
                let _ = self.inject_for(line, &fix, Some(&mut own_wl));
                if !own_wl.is_empty() {
                    job.add_cascade(line, own_wl);
                    if !job.has_cascade_step(line) {
                        job.steps.push_front(Step::CascadeVerify(line));
                    }
                }
                let strip = self.sh.geometry.strip_of(line);
                let need = self.sh.policy.need(job.entry.access.ratio, strip);
                let neighbors = self.sh.geometry.bitline_neighbors(line);
                for side in Side::BOTH {
                    let victims = &self.ls.bl_hits[side.idx()];
                    if victims.is_empty() {
                        continue;
                    }
                    let needed = match side {
                        Side::Up => need.up,
                        Side::Down => need.down,
                    };
                    if !needed {
                        continue; // no-use strip: nothing to protect
                    }
                    let Some(n) = neighbors[side.idx()] else {
                        continue;
                    };
                    job.add_cascade(n, victims.clone());
                    if !job.has_cascade_step(n) {
                        job.steps.push_front(Step::CascadeVerify(n));
                    }
                }
            }
        }
    }

    /// Injects disturbances for a committed programming operation on
    /// `addr`: word-line victims inside the line (appended to `wl_out`
    /// when given) and bit-line victims in both physical neighbours,
    /// left in `self.ls.bl_hits` until the next call. Returns the
    /// word-line victim count.
    ///
    /// Every injection draws from the injector's *event stream* keyed
    /// by `(line, epoch)` — the line's stable address key plus a
    /// per-line count of programming operations, kept in the line's
    /// store record — so the outcome depends only on the line's own
    /// history, never on what other lines (or banks) did in between.
    /// The written line and each neighbour are looked up once, and
    /// their victims are applied through that record. All buffers are
    /// lane-held scratch — the hot path allocates nothing once their
    /// capacities have grown.
    pub(crate) fn inject_for(
        &mut self,
        addr: LineAddr,
        diff: &DiffMask,
        wl_out: Option<&mut Vec<u16>>,
    ) -> usize {
        let injector = &self.sh.injector;
        let mut wl = std::mem::take(&mut self.ls.wl_scratch);
        let ev = self
            .store
            .disturb_programmed_with(addr, &mut wl, |epoch, after, wl| {
                let ev = injector.event(addr.stream_key(), epoch);
                injector.draw_wordline_into(&ev, after, diff, wl);
                ev
            });
        // The store keeps only cells that physically flipped: stuck
        // cells cannot crystallize, and the hardware's pre/post-read
        // comparison would show no change for them either.
        let wl_count = wl.len();
        if let Some(out) = wl_out {
            out.extend_from_slice(&wl);
        }
        self.ls.wl_scratch = wl;
        let neighbors = self.sh.geometry.bitline_neighbors(addr);
        for side in Side::BOTH {
            let mut victims = std::mem::take(&mut self.ls.bl_hits[side.idx()]);
            victims.clear();
            if let Some(n) = neighbors[side.idx()] {
                // Decommissioned lines are no longer programmed in the
                // array, so they can neither disturb nor be disturbed.
                if !self.ls.salvaged.contains_key(&n) {
                    self.store.disturb_with(n, &mut victims, |raw, v| {
                        injector.draw_bitline_into(&ev, side.idx(), diff, raw, v);
                    });
                }
            }
            self.ls.bl_hits[side.idx()] = victims;
        }
        wl_count
    }

    /// LazyCorrection-or-correct decision after a verification read found
    /// `new_errors` in `line` (§4.2), extended with the graceful
    /// degradation ladder for ECP exhaustion:
    ///
    /// 1. **Bounded retry** — the first `ecp_retry_cap` exhaustions on a
    ///    line fall back to an immediate verify-and-correct pass but keep
    ///    LazyCorrection armed (the next errors may again fit the table).
    /// 2. **Escalation** — past the cap the line stops attempting ECP
    ///    buffering entirely; every new error is corrected on the spot.
    ///    A line is escalated exactly when its distress count exceeds
    ///    the cap: distress only grows, and decommissioning drops it.
    /// 3. **Decommission** — a line that keeps accumulating distress even
    ///    under immediate correction is remapped into the salvage pool.
    fn resolve_verification(
        &mut self,
        job: &mut WriteJob,
        line: LineAddr,
        new_errors: Vec<u16>,
        at: Cycle,
    ) {
        let _t = prof::timer(Site::CtrlVerify);
        if self.ls.salvaged.contains_key(&line) {
            return;
        }
        self.plant_hard_excluding(line, &new_errors);
        self.ls
            .stats
            .errors_per_verification
            .record(new_errors.len() as u64);
        if new_errors.is_empty() {
            return;
        }
        let free_slots = self
            .store
            .ecp_ref(line)
            .map_or(self.sh.cfg.ecp_entries, |t| t.free_slots());
        if self.sh.cfg.scheme.lazy_correction {
            let retry_cap = self.sh.cfg.ecp_retry_cap;
            let distress = self.ls.distress.get(&line).copied().unwrap_or(0);
            if distress > retry_cap {
                // Rung 2: buffering is abandoned for this line; count
                // distress toward the decommission threshold.
                let d = distress + 1;
                self.ls.distress.insert(line, d);
                if d >= self.sh.cfg.decommission_after
                    && self.try_decommission(line, job, &new_errors, at)
                {
                    return;
                }
                self.ls.stats.immediate_corrections.inc();
            } else if new_errors.len() <= free_slots {
                if self.sh.cfg.scheme.ecp_write_inline {
                    job.steps.push_front(Step::EcpWrite {
                        line,
                        cells: new_errors,
                    });
                } else {
                    // The record targets the separate ECP chip and overlaps
                    // with the bank's next data operation.
                    self.record_ecp(line, &new_errors);
                }
                return;
            } else {
                // The table cannot absorb this batch.
                self.ls.stats.ecp_exhaustions.inc();
                let d = distress + 1;
                self.ls.distress.insert(line, d);
                if d <= retry_cap {
                    // Rung 1: correct now, retry buffering next time.
                    self.ls.stats.correction_retries.inc();
                } else {
                    // Escalated from here on.
                    self.ls.stats.immediate_corrections.inc();
                }
            }
        }
        // Correct everything: the new errors plus any buffered ones.
        let mut cells: Vec<u16> = self
            .store
            .ecp_ref(line)
            .map(|t| {
                t.entries()
                    .iter()
                    .filter(|e| e.kind == EcpKind::Disturb)
                    .map(|e| e.bit)
                    .collect()
            })
            .unwrap_or_default();
        cells.extend(new_errors);
        cells.sort_unstable();
        cells.dedup();
        job.steps.push_front(Step::Correction { line, cells });
    }

    /// Records buffered-WD cells into a line's ECP table, charging the
    /// ECP chip's wear (10 bits per record). The correct value of a
    /// disturbed cell is always `0` — WD only crystallizes amorphous
    /// cells. A record that overflows despite the earlier capacity check
    /// (a racing hard error can steal the slot) degrades to a direct
    /// RESET fix of the cell.
    pub(crate) fn record_ecp(&mut self, line: LineAddr, cells: &[u16]) {
        for &bit in cells {
            match self
                .store
                .ecp_mut(line)
                .record(bit, false, EcpKind::Disturb)
            {
                Ok(()) => {
                    self.store.charge_ecp_record();
                    self.ls.stats.ecp_records.inc();
                }
                Err(_) => {
                    self.ls.stats.ecp_overflow_fixes.inc();
                    let fix = DiffMask::reset_only_cells(&[bit]);
                    self.store.apply_write(line, &fix, WriteClass::Correction);
                }
            }
        }
    }

    /// First-touch hard-error planting for the DIMM-aging experiments.
    fn plant_hard(&mut self, line: LineAddr) {
        self.plant_hard_excluding(line, &[]);
    }

    /// First-touch hard-error planting; cells listed in `known_errors`
    /// are raw-disturbed but architecturally `0`, so a fault landing on
    /// one must record `0` as the correct value, not the corrupted raw
    /// bit.
    ///
    /// Draws come from the plant stream keyed by the line's address, so
    /// a line's planted faults are a pure function of `(seed, line,
    /// age)` — independent of which other lines were touched first.
    fn plant_hard_excluding(&mut self, line: LineAddr, known_errors: &[u16]) {
        let Some((model, age)) = self.sh.hard_plan else {
            return;
        };
        if !self.ls.planted.insert(line) {
            return;
        }
        let mut rng = self.sh.plant_stream.keyed(line.stream_key()).sequence();
        let k = model.sample_line_errors(age, &mut rng);
        for _ in 0..k {
            let bit = rng.below(512) as u16;
            let stuck = rng.chance(0.5);
            if known_errors.contains(&bit) {
                self.store
                    .plant_hard_error_with_value(line, bit, stuck, false);
            } else {
                self.store.plant_hard_error(line, bit, stuck);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sdpcm_engine::Cycle;
    use sdpcm_osalloc::NmRatio;
    use sdpcm_pcm::wear::HardErrorModel;

    use crate::ctrl::testkit::*;
    use crate::ctrl::CtrlConfig;
    use crate::req::Access;
    use crate::scheme::CtrlScheme;
    use crate::writejob::{WqEntry, WriteJob};

    #[test]
    fn vnc_write_occupies_longer_than_din_write() {
        let data = patterned(4);
        let mut din = ctrl(CtrlScheme::din());
        din.submit(write(1, line(0, 50, 0), data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut din);
        let din_busy = din.stats().phases.pre_reads
            + din.stats().phases.post_reads
            + din.stats().phases.array_writes;

        let mut base = ctrl(CtrlScheme::baseline_vnc());
        base.submit(write(1, line(0, 50, 0), data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut base);
        let base_busy = base.stats().phases.pre_reads
            + base.stats().phases.post_reads
            + base.stats().phases.array_writes;
        // Baseline adds 2 pre-reads + 2 post-reads = 1600 extra cycles,
        // plus whatever corrections the injected disturbances demand.
        assert!(
            base_busy.0 - din_busy.0 >= 1600,
            "delta={}",
            base_busy.0 - din_busy.0
        );
        assert!(base.stats().verification_ops.get() >= 2);
        assert_eq!(din.stats().verification_ops.get(), 0);
    }

    #[test]
    fn one_two_ratio_skips_all_verification() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let a = Access {
            ratio: NmRatio::one_two(),
            // Interior even strip: both neighbours marked no-use.
            ..write(1, line(0, 50, 0), patterned(5), Cycle(0))
        };
        c.submit(a, Cycle(0)).unwrap();
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().verification_ops.get(), 0);
        assert_eq!(c.stats().phases.pre_reads, Cycle::ZERO);
    }

    #[test]
    fn disturbed_neighbors_stay_architecturally_correct_with_vnc() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let victim_up = line(3, 40, 7);
        let target = line(3, 41, 7);
        let victim_down = line(3, 42, 7);
        let up_data = patterned(10);
        let down_data = patterned(11);
        c.submit(write(1, victim_up, up_data, Cycle(0)), Cycle(0))
            .unwrap();
        c.submit(write(2, victim_down, down_data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut c);
        // Hammer the middle line with alternating data.
        for i in 0..50u64 {
            let t = Cycle(1_000_000 + i);
            c.submit(write(100 + i, target, patterned(100 + i), t), t)
                .unwrap();
            let _ = run_until_idle(&mut c);
        }
        assert_eq!(c.architectural_line(victim_up), up_data);
        assert_eq!(c.architectural_line(victim_down), down_data);
        assert!(c.stats().correction_ops.get() > 0, "VnC actually corrected");
    }

    #[test]
    fn unprotected_super_dense_corrupts_neighbors() {
        let mut c = ctrl(CtrlScheme::unprotected_super_dense());
        let victim = line(3, 40, 7);
        let target = line(3, 41, 7);
        let victim_data = patterned(10);
        c.submit(write(1, victim, victim_data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut c);
        for i in 0..50u64 {
            let t = Cycle(1_000_000 + i);
            c.submit(write(100 + i, target, patterned(100 + i), t), t)
                .unwrap();
            let _ = run_until_idle(&mut c);
        }
        assert_ne!(
            c.architectural_line(victim),
            victim_data,
            "50 disturbing writes at p=11.5% per vulnerable cell must corrupt"
        );
    }

    #[test]
    fn lazyc_buffers_instead_of_correcting() {
        let mut base = ctrl(CtrlScheme::baseline_vnc());
        let mut lazy = ctrl(CtrlScheme::lazyc());
        for c in [&mut base, &mut lazy] {
            let target = line(3, 41, 7);
            c.submit(write(1, line(3, 40, 7), patterned(1), Cycle(0)), Cycle(0))
                .unwrap();
            c.submit(write(2, line(3, 42, 7), patterned(2), Cycle(0)), Cycle(0))
                .unwrap();
            let _ = run_until_idle(c);
            for i in 0..30u64 {
                let t = Cycle(1_000_000 + i);
                c.submit(write(100 + i, target, patterned(100 + i), t), t)
                    .unwrap();
                let _ = run_until_idle(c);
            }
        }
        assert!(lazy.stats().ecp_records.get() > 0, "LazyC records errors");
        assert!(
            lazy.stats().correction_ops.get() < base.stats().correction_ops.get(),
            "LazyC: {} corrections, baseline: {}",
            lazy.stats().correction_ops.get(),
            base.stats().correction_ops.get()
        );
    }

    #[test]
    fn vnc_energy_overhead_exceeds_din() {
        let run = |scheme: CtrlScheme| {
            let mut c = ctrl(scheme);
            for i in 0..20u64 {
                let t = Cycle(i * 100_000);
                c.submit(
                    write(i, line(1, 30 + (i % 5) as u32, 0), patterned(i), t),
                    t,
                )
                .unwrap();
                let _ = run_until_idle(&mut c);
            }
            c.energy().overhead_fraction()
        };
        let din = run(CtrlScheme::din());
        let vnc = run(CtrlScheme::baseline_vnc());
        assert!(
            vnc > din,
            "VnC must cost extra energy: vnc={vnc:.3} din={din:.3}"
        );
        assert!(vnc > 0.2, "pre/post reads + corrections are significant");
    }

    #[test]
    fn hard_errors_consume_ecp_and_still_read_correctly() {
        let mut c = ctrl(CtrlScheme::lazyc());
        c.set_dimm_age(HardErrorModel::default(), 1.0);
        let a = line(0, 80, 0);
        let data = patterned(42);
        c.submit(write(1, a, data, Cycle(0)), Cycle(0)).unwrap();
        let _ = run_until_idle(&mut c);
        assert_eq!(c.architectural_line(a), data, "ECP patches stuck cells");
    }

    #[test]
    fn lazyc_ladder_rungs_fire_at_their_exact_boundaries() {
        // An ECP table with no entries makes every verification that
        // finds an error an exhaustion event for its line.
        let cfg = CtrlConfig {
            ecp_entries: 0,
            ..CtrlConfig::table2(CtrlScheme::lazyc())
        };
        assert_eq!((cfg.ecp_retry_cap, cfg.decommission_after), (2, 8));
        let mut c = ctrl_with(cfg);
        let victim = line(0, 40, 3);
        // The verifying job writes another line, so decommissioning the
        // victim is not refused on its account.
        let access: Access = write(1, line(0, 41, 3), patterned(1), Cycle(0));
        let mut job = WriteJob::new(WqEntry::new(access, [true, true]), true, true, true);
        for n in 1..=cfg.decommission_after + 1 {
            with_lane(&mut c, 0, |lane| {
                lane.resolve_verification(&mut job, victim, vec![7], Cycle(u64::from(n)));
            });
            let s = c.stats();
            let (retries, immediate, decommissions) = match n {
                // Rung 1: the first `ecp_retry_cap` exhaustions retry.
                1..=2 => (n, 0, 0),
                // Rung 2: exhaustion 3 escalates; the line corrects on
                // the spot until its distress reaches the threshold.
                3..=7 => (2, n - 2, 0),
                // Rung 3: decommissioned at `decommission_after`; the
                // salvaged line needs no further verification.
                _ => (2, 5, 1),
            };
            assert_eq!(
                (
                    s.correction_retries.get(),
                    s.immediate_corrections.get(),
                    s.decommissions.get()
                ),
                (u64::from(retries), u64::from(immediate), decommissions),
                "after verification {n}"
            );
            assert_eq!(s.ecp_exhaustions.get(), u64::from(n.min(3)));
            let distress = lane_state(&mut c, 0).distress.get(&victim).copied();
            let expect = (n < cfg.decommission_after).then_some(n);
            assert_eq!(distress, expect, "distress after verification {n}");
        }
        assert_eq!(c.salvaged_lines(), 1);
    }
}
