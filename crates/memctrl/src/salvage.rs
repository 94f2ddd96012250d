//! The last rung of the degradation ladder: decommissioning a line into
//! its bank's salvage pool.
//!
//! A line whose LazyCorrection distress passes `decommission_after`
//! leaves the array. Its architectural contents move into a
//! controller-held buffer that serves its reads and absorbs its writes
//! at [`crate::FORWARD_LATENCY`]; it is never programmed again, so it
//! can neither disturb nor be disturbed. Pools are per bank, which keeps every
//! decommission decision bank-local.

use sdpcm_engine::Cycle;
use sdpcm_pcm::geometry::{LineAddr, MemGeometry};
use sdpcm_pcm::line::LineBuf;

use crate::ctrl::FORWARD_LATENCY;
use crate::lane::Lane;
use crate::writejob::{Side, Step, WriteJob};

/// Clears from `patched` every cell of `line` that `job` still tracks
/// as disturbed-but-unfixed: cells of queued corrections and ECP
/// records, cascade victims awaiting verification, and injected
/// bit-line victims whose post-read has not resolved yet. Used by
/// decommissioning to reconstruct the true architectural content.
fn cleanse_job_disturbances(
    geometry: &MemGeometry,
    job: &WriteJob,
    line: LineAddr,
    patched: &mut LineBuf,
) {
    for s in &job.steps {
        match s {
            Step::Correction { line: l, cells } | Step::EcpWrite { line: l, cells }
                if *l == line =>
            {
                for &bit in cells {
                    patched.set_bit(bit as usize, false);
                }
            }
            _ => {}
        }
    }
    for (l, cells) in &job.cascade_pending {
        if *l == line {
            for &bit in cells {
                patched.set_bit(bit as usize, false);
            }
        }
    }
    let neighbors = geometry.bitline_neighbors(job.entry.access.addr);
    for side in Side::BOTH {
        if neighbors[side.idx()] == Some(line) {
            for &bit in &job.injected[side.idx()] {
                patched.set_bit(bit as usize, false);
            }
        }
    }
}

impl Lane<'_, '_> {
    /// Attempts to retire `line` from the array into the bank's salvage
    /// pool. Refuses when the pool is full or when the in-flight job (or
    /// its paused sibling) still targets the line. Returns `true` when
    /// the line was decommissioned.
    pub(crate) fn try_decommission(
        &mut self,
        line: LineAddr,
        job: &mut WriteJob,
        new_errors: &[u16],
        at: Cycle,
    ) -> bool {
        if self.ls.salvaged.len() >= self.sh.cfg.salvage_pool_lines {
            self.ls.stats.salvage_rejections.inc();
            return false;
        }
        if job.entry.access.addr == line {
            return false;
        }
        if let Some(paused) = &self.ls.bank.paused {
            if paused.entry.access.addr == line {
                return false;
            }
        }
        // Reconstruct the architectural content: raw array bits, minus
        // every disturbance the controller knows about (WD only flips
        // 0 -> 1, so their correct value is 0), DIN-decoded. "Knows
        // about" spans more than `new_errors`: the in-flight job (and a
        // paused sibling) may still hold unserved fixes for this line —
        // queued `Correction`/`EcpWrite` cells, cascade victims awaiting
        // their verify, and injected-but-not-yet-post-read neighbour
        // victims. Those steps are dropped below, so their cells must be
        // cleansed here or the crystallized bits would be frozen into the
        // salvage snapshot as data.
        let mut patched = self.store.read_line(line);
        for &bit in new_errors {
            patched.set_bit(bit as usize, false);
        }
        cleanse_job_disturbances(&self.sh.geometry, job, line, &mut patched);
        if let Some(paused) = &self.ls.bank.paused {
            cleanse_job_disturbances(&self.sh.geometry, paused, line, &mut patched);
        }
        let data = self.ls.architectural(&self.sh.codec, line, || {
            (patched, self.store.din_flags(line))
        });
        self.ls.salvaged.insert(line, data);
        self.ls.distress.remove(&line);
        self.ls.stats.decommissions.inc();
        // The job owes the line no further maintenance.
        job.steps.retain(|s| {
            !matches!(s,
                Step::Correction { line: l, .. }
                | Step::EcpWrite { line: l, .. }
                | Step::CascadeVerify(l) if *l == line)
        });
        job.cascade_pending.retain(|(l, _)| *l != line);
        // Absorb every queued write to the line so each requester still
        // sees a completion. Coalescing keeps one entry per line, but a
        // cancelled write goes back at the front, ahead of any later write
        // to its line; the queue holds them oldest first, so the last one
        // absorbed leaves the newest data in the buffer.
        while self.ls.bank.wq_contains(line) {
            let b = &mut self.ls.bank;
            let Some(e) = b
                .write_q
                .iter()
                .position(|e| e.access.addr == line)
                .and_then(|pos| b.wq_remove(pos))
            else {
                self.ls
                    .note_anomaly("write-queue index holds a line the queue does not");
                break;
            };
            if let Some(d) = e.access.kind.write_data() {
                self.ls.salvaged.insert(line, d);
            }
            self.push_completion(&e.access, at + FORWARD_LATENCY, None);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use sdpcm_engine::Cycle;

    use crate::ctrl::testkit::*;
    use crate::ctrl::FORWARD_LATENCY;
    use crate::req::ReqId;
    use crate::scheme::CtrlScheme;
    use crate::writejob::{WqEntry, WriteJob};

    #[test]
    fn decommission_absorbs_every_queued_write_to_the_line() {
        // A cancelled write goes back at the front, ahead of a later
        // write to its line: both are queued when the line retires.
        let mut c = ctrl(CtrlScheme::lazyc().with_write_cancellation());
        let victim = line(0, 40, 3);
        let (older, newer) = (patterned(1), patterned(2));
        let other = line(0, 50, 3);
        let b = &mut lane_state(&mut c, 0).bank;
        b.wq_push(
            WqEntry::new(write(1, victim, older, Cycle(0)), [true, true]),
            false,
        );
        b.wq_push(
            WqEntry::new(write(2, other, patterned(3), Cycle(0)), [true, true]),
            false,
        );
        b.wq_push(
            WqEntry::new(write(3, victim, newer, Cycle(0)), [true, true]),
            false,
        );
        // The verifying job writes a neighbour of the victim.
        let access = write(4, line(0, 41, 3), patterned(4), Cycle(0));
        let mut job = WriteJob::new(WqEntry::new(access, [true, true]), true, true, true);
        let at = Cycle(100);
        assert!(with_lane(&mut c, 0, |lane| lane.try_decommission(
            victim,
            &mut job,
            &[],
            at
        )));
        let lane = lane_state(&mut c, 0);
        assert_eq!(lane.salvaged.get(&victim), Some(&newer), "newest data wins");
        let queued: Vec<_> = lane.bank.write_q.iter().map(|e| e.access.addr).collect();
        assert_eq!(queued, [other], "no write left to program the retired line");
        c.check_wq_index().unwrap();
        assert_eq!(c.architectural_line(victim), newer);
        let done = run_until_idle(&mut c);
        for id in [1, 3] {
            let d = done.iter().find(|d| d.id == ReqId(id)).unwrap();
            assert_eq!(d.at, at + FORWARD_LATENCY, "write {id} completes");
        }
        assert_eq!(c.architectural_line(victim), newer);
    }
}
