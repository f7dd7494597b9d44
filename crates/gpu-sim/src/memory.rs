//! Device (global) memory: a ledger of live buffers and their sizes.
//!
//! Kernels execute functionally on the host, against host memory, so a
//! device buffer holds no bytes: it stands in for a resident table's or a
//! transfer's size. Capacity accounting enforces the device's real memory
//! limit from the moment of allocation — the reason the paper keeps only
//! *hash values* resident on the GPU and leaves chunk metadata in system
//! memory.

use crate::error::GpuError;

/// Opaque handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) u64);

#[derive(Debug)]
pub(crate) struct DeviceMemory {
    capacity: u64,
    used: u64,
    next_id: u64,
    /// The live buffers, in id order: ids only grow, so an allocation
    /// appends, and a device holds a handful of buffers at a time (a
    /// resident table, a batch's staging and result buffers), so a
    /// binary search beats hashing the id.
    buffers: Vec<(BufferId, u64)>,
}

impl DeviceMemory {
    pub(crate) fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            next_id: 0,
            buffers: Vec::new(),
        }
    }

    fn find(&self, id: BufferId) -> Result<usize, GpuError> {
        self.buffers
            .binary_search_by_key(&id, |(live, _)| *live)
            .map_err(|_| GpuError::InvalidBuffer(id))
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    pub(crate) fn alloc(&mut self, len: u64) -> Result<BufferId, GpuError> {
        let available = self.capacity - self.used;
        if len > available {
            return Err(GpuError::OutOfMemory {
                requested: len,
                available,
            });
        }
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.buffers.push((id, len));
        self.used += len;
        Ok(id)
    }

    pub(crate) fn free(&mut self, id: BufferId) -> Result<(), GpuError> {
        let (_, len) = self.buffers.remove(self.find(id)?);
        self.used -= len;
        Ok(())
    }

    /// Size of a live buffer.
    pub(crate) fn len(&self, id: BufferId) -> Result<u64, GpuError> {
        Ok(self.buffers[self.find(id)?].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_reclaims_space() {
        let mut mem = DeviceMemory::new(100);
        let a = mem.alloc(60).unwrap();
        // Capacity is charged in full at allocation.
        assert_eq!((mem.used(), mem.len(a)), (60, Ok(60)));
        assert!(matches!(
            mem.alloc(41),
            Err(GpuError::OutOfMemory {
                requested: 41,
                available: 40
            })
        ));
        let b = mem.alloc(40).unwrap();
        mem.free(a).unwrap();
        assert_eq!(mem.used(), 40);
        assert_eq!(mem.len(a), Err(GpuError::InvalidBuffer(a)));
        mem.free(b).unwrap();
        assert_eq!(mem.used(), 0);
        assert!(mem.alloc(100).is_ok());
    }

    #[test]
    fn double_free_is_an_error() {
        let mut mem = DeviceMemory::new(1024);
        let id = mem.alloc(8).unwrap();
        mem.free(id).unwrap();
        assert_eq!(mem.free(id), Err(GpuError::InvalidBuffer(id)));
        assert_eq!(mem.len(id), Err(GpuError::InvalidBuffer(id)));
    }

    #[test]
    fn distinct_ids_for_distinct_allocations() {
        let mut mem = DeviceMemory::new(1024);
        let a = mem.alloc(8).unwrap();
        let b = mem.alloc(8).unwrap();
        assert_ne!(a, b);
        assert_eq!(mem.capacity(), 1024);
    }
}
