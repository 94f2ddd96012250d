//! Memory requests and completions.

use sdpcm_engine::Cycle;
use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::geometry::LineAddr;
use sdpcm_pcm::line::LineBuf;

/// Unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand read of one 64 B line.
    Read,
    /// Write of one 64 B line with the new (plain, un-encoded) data.
    Write(LineBuf),
}

impl AccessKind {
    /// `true` for writes.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, AccessKind::Write(_))
    }

    /// The data a write carries; `None` for reads.
    pub(crate) fn write_data(self) -> Option<LineBuf> {
        match self {
            AccessKind::Write(data) => Some(data),
            AccessKind::Read => None,
        }
    }
}

/// One request from the system to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Unique id, echoed in the completion.
    pub id: ReqId,
    /// Target line.
    pub addr: LineAddr,
    /// Read or write (+ data).
    pub kind: AccessKind,
    /// The (n:m) allocator tag from the page-table entry (Figure 9).
    pub ratio: NmRatio,
    /// Issuing core, echoed in the completion.
    pub core: u8,
    /// Arrival time at the controller.
    pub arrive: Cycle,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request this answers.
    pub id: ReqId,
    /// The issuing core ([`Access::core`]).
    pub core: u8,
    /// Completion time.
    pub at: Cycle,
    /// For reads: the architectural data returned. Every read carries
    /// data, so `None` marks a write's completion.
    pub data: Option<LineBuf>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write(LineBuf::zeroed()).is_write());
    }
}
