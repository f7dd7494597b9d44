//! A page-mapped flash translation layer with greedy garbage collection.
//!
//! The FTL decides *which NAND operations* a host command turns into; the
//! device layer charges their time. Keeping the two separate makes write
//! amplification directly observable: [`FtlStats::write_amplification`] is
//! the ratio of NAND page programs to host page writes, the quantity behind
//! the paper's endurance argument for inline (rather than background) data
//! reduction.

use crate::error::SsdError;
use crate::spec::SsdSpec;

/// A physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ppa {
    /// Die index across the whole device.
    pub die: u32,
    /// Block index within the die.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// One NAND operation the device must execute, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NandOp {
    /// Read one page on `die`.
    Read {
        /// Die executing the read.
        die: u32,
    },
    /// Program one page on `die`.
    Program {
        /// Die executing the program.
        die: u32,
    },
    /// Erase one block on `die`.
    Erase {
        /// Die executing the erase.
        die: u32,
    },
}

/// Reverse-map sentinel: the page was programmed but its data is stale.
const LPN_NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Default)]
struct Block {
    /// Next unwritten page index (pages program sequentially in a block).
    write_ptr: u32,
    /// Reverse map, one entry per *programmed* page: the LPN the page
    /// holds, or [`LPN_NONE`] once invalidated. Grows with `write_ptr`
    /// (pages past it are unwritten), so a freshly built or freshly erased
    /// block owns no page array at all — a multi-terabyte device would
    /// otherwise pay hundreds of thousands of upfront allocations before
    /// the first host write.
    lpns: Vec<u64>,
    valid_count: u32,
    erase_count: u32,
}

impl Block {
    fn is_full(&self, pages_per_block: u32) -> bool {
        self.write_ptr >= pages_per_block
    }

    #[cfg(test)]
    fn is_valid(&self, page: u32) -> bool {
        self.lpns.get(page as usize).is_some_and(|&l| l != LPN_NONE)
    }

    /// Drops the mapping for `page` if it is still live.
    fn invalidate(&mut self, page: u32) {
        if let Some(slot) = self.lpns.get_mut(page as usize) {
            if *slot != LPN_NONE {
                *slot = LPN_NONE;
                self.valid_count -= 1;
            }
        }
    }

    /// Claims the next sequential page for `lpn`, returning its index.
    fn program(&mut self, lpn: u64) -> u32 {
        let page = self.write_ptr;
        debug_assert_eq!(self.lpns.len(), page as usize);
        self.write_ptr += 1;
        self.lpns.push(lpn);
        self.valid_count += 1;
        page
    }

    /// Resets the block to erased, keeping the page array's capacity so a
    /// recycled block programs without reallocating.
    fn erase(&mut self) {
        self.write_ptr = 0;
        self.lpns.clear();
        self.valid_count = 0;
        self.erase_count += 1;
    }
}

#[derive(Debug, Clone)]
struct Die {
    blocks: Vec<Block>,
    /// The block currently accepting host/GC writes.
    active: u32,
    /// Fully erased blocks available to become active.
    free: Vec<u32>,
}

/// Cumulative FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FtlStats {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages programmed to NAND (host + GC migrations).
    pub nand_writes: u64,
    /// Pages migrated by garbage collection.
    pub gc_migrations: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Pages read by the host.
    pub host_reads: u64,
}

impl FtlStats {
    /// NAND writes per host write; 1.0 is ideal, larger means extra wear.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.nand_writes as f64 / self.host_writes as f64
        }
    }
}

/// An unmapped entry in the packed logical map.
const MAP_NONE: u64 = 0;

/// Packs a [`Ppa`] into a non-zero u64 (die:23 | block:20 | page:20, +1).
fn pack_ppa(ppa: Ppa) -> u64 {
    debug_assert!(ppa.die < 1 << 23 && ppa.block < 1 << 20 && ppa.page < 1 << 20);
    (((ppa.die as u64) << 40) | ((ppa.block as u64) << 20) | ppa.page as u64) + 1
}

/// Inverse of [`pack_ppa`]; [`MAP_NONE`] means unmapped.
fn unpack_ppa(packed: u64) -> Option<Ppa> {
    let v = packed.checked_sub(1)?;
    Some(Ppa {
        die: (v >> 40) as u32,
        block: ((v >> 20) & 0xF_FFFF) as u32,
        page: (v & 0xF_FFFF) as u32,
    })
}

/// The page-mapped FTL.
#[derive(Debug)]
pub struct Ftl {
    spec: SsdSpec,
    /// Logical page → packed physical page ([`pack_ppa`]); zero means
    /// unmapped. Packing as plain zeroed u64s lets construction take the
    /// allocator's zeroed path, so the map of a large device is backed by
    /// untouched zero pages until the host actually writes.
    map: Vec<u64>,
    dies: Vec<Die>,
    /// Round-robin cursor for spreading host writes across dies.
    next_die: u32,
    stats: FtlStats,
}

impl Ftl {
    /// Builds the FTL for `spec` with every block erased.
    pub fn new(spec: SsdSpec) -> Self {
        spec.validate();
        let dies = (0..spec.total_dies())
            .map(|_| Die {
                blocks: vec![Block::default(); spec.blocks_per_die as usize],
                active: 0,
                // Block 0 is active; the rest are free.
                free: (1..spec.blocks_per_die).rev().collect(),
            })
            .collect();
        let logical = spec.logical_pages() as usize;
        Ftl {
            map: vec![MAP_NONE; logical],
            dies,
            next_die: 0,
            spec,
            stats: FtlStats::default(),
        }
    }

    /// The device spec this FTL was built for.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Replaces the transient-fault schedule. Geometry and timing are
    /// immutable after construction; only the fault overlay may change
    /// mid-run (checker tooling toggles it between op batches).
    pub(crate) fn set_faults(&mut self, faults: crate::spec::SsdFaultSpec) {
        self.spec.faults = faults;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Number of host-visible pages.
    pub fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// Highest erase count across all blocks (wear indicator).
    pub fn max_erase_count(&self) -> u32 {
        self.dies
            .iter()
            .flat_map(|d| d.blocks.iter())
            .map(|b| b.erase_count)
            .max()
            .unwrap_or(0)
    }

    /// Fraction of the rated endurance consumed, `[0, 1+]`.
    pub fn endurance_consumed(&self) -> f64 {
        self.max_erase_count() as f64 / self.spec.pe_cycle_limit as f64
    }

    /// Where `lpn` currently lives, if written.
    pub fn lookup(&self, lpn: u64) -> Result<Option<Ppa>, SsdError> {
        self.map
            .get(lpn as usize)
            .map(|&packed| unpack_ppa(packed))
            .ok_or(SsdError::InvalidLpn {
                lpn,
                capacity: self.map.len() as u64,
            })
    }

    /// Translates a host page write into NAND operations and updates the
    /// mapping. `ops` — a list the caller keeps across writes — is
    /// cleared, then filled with what the device must charge, in order.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidLpn`] for out-of-range pages;
    /// [`SsdError::CapacityExhausted`] when GC cannot reclaim space.
    pub fn write(&mut self, lpn: u64, ops: &mut Vec<NandOp>) -> Result<(), SsdError> {
        ops.clear();
        if lpn as usize >= self.map.len() {
            return Err(SsdError::InvalidLpn {
                lpn,
                capacity: self.map.len() as u64,
            });
        }
        // Invalidate the previous location.
        if let Some(old) = unpack_ppa(self.map[lpn as usize]) {
            self.dies[old.die as usize].blocks[old.block as usize].invalidate(old.page);
        }
        let die = self.next_die;
        self.next_die = (self.next_die + 1) % self.spec.total_dies();
        let ppa = self.program_page(die, lpn, ops)?;
        self.map[lpn as usize] = pack_ppa(ppa);
        self.stats.host_writes += 1;
        ops.push(NandOp::Program { die });
        self.stats.nand_writes += 1;
        Ok(())
    }

    /// Translates a host page read into its NAND operation.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidLpn`] / [`SsdError::Unwritten`].
    pub fn read(&mut self, lpn: u64) -> Result<(Ppa, NandOp), SsdError> {
        let ppa = self.lookup(lpn)?.ok_or(SsdError::Unwritten { lpn })?;
        self.stats.host_reads += 1;
        Ok((ppa, NandOp::Read { die: ppa.die }))
    }

    /// Invalidates a logical page (TRIM).
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidLpn`] for out-of-range pages.
    pub fn trim(&mut self, lpn: u64) -> Result<(), SsdError> {
        if lpn as usize >= self.map.len() {
            return Err(SsdError::InvalidLpn {
                lpn,
                capacity: self.map.len() as u64,
            });
        }
        if let Some(old) = unpack_ppa(std::mem::replace(&mut self.map[lpn as usize], MAP_NONE)) {
            self.dies[old.die as usize].blocks[old.block as usize].invalidate(old.page);
        }
        Ok(())
    }

    /// Claims one page on `die`'s active block, running GC first if the die
    /// is out of space. Appends any GC ops to `ops`.
    fn program_page(
        &mut self,
        die_idx: u32,
        lpn: u64,
        ops: &mut Vec<NandOp>,
    ) -> Result<Ppa, SsdError> {
        let pages_per_block = self.spec.pages_per_block;
        // Roll to a fresh active block when the current one is full.
        if self.dies[die_idx as usize].blocks[self.dies[die_idx as usize].active as usize]
            .is_full(pages_per_block)
        {
            // Maintain a reserve of free blocks per die: one for the next
            // active block, plus headroom so a GC pass that rolls its
            // migration destination mid-way never finds the pool empty.
            while self.dies[die_idx as usize].free.len() < 3 {
                self.garbage_collect(die_idx, ops)?;
            }
            // GC migrations may already have rolled to a fresh active
            // block; rolling again here would orphan it half-written.
            let die = &mut self.dies[die_idx as usize];
            if die.blocks[die.active as usize].is_full(pages_per_block) {
                let next = die.free.pop().ok_or(SsdError::CapacityExhausted)?;
                die.active = next;
            }
        }
        let die = &mut self.dies[die_idx as usize];
        let block_idx = die.active;
        let page = die.blocks[block_idx as usize].program(lpn);
        Ok(Ppa {
            die: die_idx,
            block: block_idx,
            page,
        })
    }

    /// Greedy GC on one die: erase the fullest-of-invalid block, migrating
    /// its live pages into the active block first.
    fn garbage_collect(&mut self, die_idx: u32, ops: &mut Vec<NandOp>) -> Result<(), SsdError> {
        let pages_per_block = self.spec.pages_per_block;
        let victim = {
            let die = &self.dies[die_idx as usize];
            // Only full, non-active blocks are candidates.
            let candidate = die
                .blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| *i as u32 != die.active && b.is_full(pages_per_block))
                .min_by_key(|(_, b)| b.valid_count);
            match candidate {
                // A fully valid best victim means nothing is reclaimable:
                // the device is wedged (live data exceeds usable space).
                Some((_, b)) if b.valid_count >= pages_per_block => {
                    return Err(SsdError::CapacityExhausted)
                }
                Some((idx, _)) => idx as u32,
                None => return Err(SsdError::CapacityExhausted),
            }
        };

        // Migrate live pages out of the victim.
        let live: Vec<u64> = self.dies[die_idx as usize].blocks[victim as usize]
            .lpns
            .iter()
            .copied()
            .filter(|&lpn| lpn != LPN_NONE)
            .collect();
        for &lpn in &live {
            ops.push(NandOp::Read { die: die_idx });
            // Migrations go to the active block; if it fills, take a free
            // block directly (GC must not recurse).
            if self.dies[die_idx as usize].blocks[self.dies[die_idx as usize].active as usize]
                .is_full(pages_per_block)
            {
                let die = &mut self.dies[die_idx as usize];
                let next = die.free.pop().ok_or(SsdError::CapacityExhausted)?;
                die.active = next;
            }
            let die = &mut self.dies[die_idx as usize];
            let block_idx = die.active;
            let page = die.blocks[block_idx as usize].program(lpn);
            self.map[lpn as usize] = pack_ppa(Ppa {
                die: die_idx,
                block: block_idx,
                page,
            });
            ops.push(NandOp::Program { die: die_idx });
            self.stats.nand_writes += 1;
            self.stats.gc_migrations += 1;
        }

        // Erase the victim and return it to the free pool.
        let die = &mut self.dies[die_idx as usize];
        die.blocks[victim as usize].erase();
        die.free.push(victim);
        ops.push(NandOp::Erase { die: die_idx });
        self.stats.erases += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One write into a fresh op list.
    fn write(ftl: &mut Ftl, lpn: u64) -> Result<Vec<NandOp>, SsdError> {
        let mut ops = Vec::new();
        ftl.write(lpn, &mut ops)?;
        Ok(ops)
    }

    fn tiny_spec() -> SsdSpec {
        SsdSpec {
            channels: 1,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 4,
            // Generous over-provisioning: the 3-block GC reserve is a
            // large fraction of such a tiny die.
            over_provisioning: 0.4,
            ..SsdSpec::samsung_830_256g()
        }
    }

    #[test]
    fn first_write_maps_and_programs_once() {
        let mut ftl = Ftl::new(tiny_spec());
        let ops = write(&mut ftl, 0).unwrap();
        assert_eq!(ops, vec![NandOp::Program { die: 0 }]);
        assert!(ftl.lookup(0).unwrap().is_some());
        assert_eq!(ftl.stats().host_writes, 1);
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    #[test]
    fn writes_round_robin_across_dies() {
        let mut ftl = Ftl::new(tiny_spec());
        let a = write(&mut ftl, 0).unwrap();
        let b = write(&mut ftl, 1).unwrap();
        assert_eq!(a, vec![NandOp::Program { die: 0 }]);
        assert_eq!(b, vec![NandOp::Program { die: 1 }]);
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut ftl = Ftl::new(tiny_spec());
        write(&mut ftl, 5).unwrap();
        let first = ftl.lookup(5).unwrap().unwrap();
        // Write other pages so die cursor comes back around.
        write(&mut ftl, 6).unwrap();
        write(&mut ftl, 5).unwrap();
        let second = ftl.lookup(5).unwrap().unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn read_after_write_finds_page() {
        let mut ftl = Ftl::new(tiny_spec());
        write(&mut ftl, 3).unwrap();
        let (ppa, op) = ftl.read(3).unwrap();
        assert_eq!(op, NandOp::Read { die: ppa.die });
    }

    #[test]
    fn read_unwritten_is_an_error() {
        let mut ftl = Ftl::new(tiny_spec());
        assert_eq!(ftl.read(3).unwrap_err(), SsdError::Unwritten { lpn: 3 });
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut ftl = Ftl::new(tiny_spec());
        let cap = ftl.logical_pages();
        assert!(matches!(
            write(&mut ftl, cap),
            Err(SsdError::InvalidLpn { .. })
        ));
        assert!(matches!(ftl.read(cap), Err(SsdError::InvalidLpn { .. })));
        assert!(matches!(ftl.trim(cap), Err(SsdError::InvalidLpn { .. })));
    }

    #[test]
    fn trim_makes_page_unwritten() {
        let mut ftl = Ftl::new(tiny_spec());
        write(&mut ftl, 2).unwrap();
        ftl.trim(2).unwrap();
        assert_eq!(ftl.read(2).unwrap_err(), SsdError::Unwritten { lpn: 2 });
    }

    #[test]
    fn sustained_overwrites_trigger_gc_with_bounded_wa() {
        let mut ftl = Ftl::new(tiny_spec());
        let logical = ftl.logical_pages();
        // Overwrite a hot half of the logical space many times.
        for round in 0..50u64 {
            for lpn in 0..logical / 2 {
                write(&mut ftl, lpn).unwrap();
            }
            let _ = round;
        }
        let stats = ftl.stats();
        assert!(stats.erases > 0, "GC never ran");
        let wa = stats.write_amplification();
        assert!(wa >= 1.0);
        assert!(wa < 3.0, "write amplification exploded: {wa}");
        assert!(ftl.max_erase_count() > 0);
        assert!(ftl.endurance_consumed() > 0.0);
    }

    #[test]
    fn gc_preserves_all_live_mappings() {
        let mut ftl = Ftl::new(tiny_spec());
        let logical = ftl.logical_pages();
        // Fill the device, then overwrite everything twice: every lpn must
        // still map somewhere valid afterwards.
        for _ in 0..3 {
            for lpn in 0..logical {
                write(&mut ftl, lpn).unwrap();
            }
        }
        for lpn in 0..logical {
            let ppa = ftl.lookup(lpn).unwrap().expect("mapping lost");
            // And the physical page must be marked valid and reverse-mapped.
            let blk = &ftl.dies[ppa.die as usize].blocks[ppa.block as usize];
            assert!(blk.is_valid(ppa.page), "lpn {lpn} points at invalid page");
            assert_eq!(blk.lpns[ppa.page as usize], lpn);
        }
    }

    #[test]
    fn filling_beyond_logical_capacity_is_survivable() {
        // Writing every logical page repeatedly must never hit
        // CapacityExhausted: over-provisioning guarantees GC headroom.
        let mut ftl = Ftl::new(tiny_spec());
        let logical = ftl.logical_pages();
        for _ in 0..10 {
            for lpn in 0..logical {
                write(&mut ftl, lpn).expect("device wedged");
            }
        }
    }
}
