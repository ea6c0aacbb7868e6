//! Physical memory map of the simulated device.

use crate::region::{Addr, Region};

/// Physical memory map: where SRAM and FRAM live in the address space.
///
/// The defaults mirror the MSP430FR5969 used in the paper: 2 KB of volatile
/// SRAM and 64 KB of non-volatile FRAM. Runtimes carve the FRAM region into
/// `.data`/`.bss`, the segment array, checkpoint buffers and the undo log;
/// that *logical* layout lives with the runtime (see `tics-core`), not here.
///
/// ```
/// use tics_mcu::MemoryLayout;
/// let layout = MemoryLayout::default();
/// assert_eq!(layout.sram.len(), 2 * 1024);
/// assert_eq!(layout.fram.len(), 64 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Volatile SRAM region (lost on power failure).
    pub sram: Region,
    /// Non-volatile FRAM region (survives power failure).
    pub fram: Region,
}

impl MemoryLayout {
    /// Layout of the MSP430FR5969: 2 KB SRAM at `0x1C00`, 64 KB FRAM at
    /// `0x4000`.
    #[must_use]
    pub fn msp430fr5969() -> MemoryLayout {
        MemoryLayout {
            sram: Region::with_len(Addr(0x1C00), 2 * 1024),
            fram: Region::with_len(Addr(0x4000), 64 * 1024),
        }
    }

    /// A custom layout.
    ///
    /// # Panics
    ///
    /// Panics if the SRAM and FRAM regions overlap.
    #[must_use]
    pub fn new(sram: Region, fram: Region) -> MemoryLayout {
        assert!(!sram.overlaps(&fram), "SRAM {sram} overlaps FRAM {fram}");
        MemoryLayout { sram, fram }
    }

    /// Whether `addr` is backed by either memory.
    #[must_use]
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.sram.contains(addr) || self.fram.contains(addr)
    }

    /// Whether `addr` is in volatile SRAM.
    #[must_use]
    pub fn is_volatile(&self, addr: Addr) -> bool {
        self.sram.contains(addr)
    }

    /// The region holding all of `[addr, addr + len)` when `addr` sits on
    /// that region's word grid (a multiple of 4 bytes from its start, the
    /// grid of the dirty-word bitmap): `Some(false)` for SRAM,
    /// `Some(true)` for FRAM, `None` when the range is off the grid or
    /// not inside one region.
    #[must_use]
    pub fn word_window(&self, addr: Addr, len: u32) -> Option<bool> {
        let on_grid = |r: Region| (addr.0 - r.start.0).is_multiple_of(4);
        if self.sram.contains_range(addr, len) {
            on_grid(self.sram).then_some(false)
        } else if self.fram.contains_range(addr, len) {
            on_grid(self.fram).then_some(true)
        } else {
            None
        }
    }
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout::msp430fr5969()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_matches_msp430fr5969() {
        let l = MemoryLayout::default();
        assert_eq!(l.sram.start, Addr(0x1C00));
        assert_eq!(l.fram.start, Addr(0x4000));
        assert!(l.is_mapped(Addr(0x1C00)));
        assert!(l.is_mapped(Addr(0x4000)));
        assert!(!l.is_mapped(Addr(0x0)));
        assert!(l.is_volatile(Addr(0x1C00)));
        assert!(!l.is_volatile(Addr(0x4000)));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_layout_panics() {
        let _ = MemoryLayout::new(
            Region::with_len(Addr(0x1000), 0x1000),
            Region::with_len(Addr(0x1800), 0x1000),
        );
    }
}
