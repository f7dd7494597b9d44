//! The oracle: a volume array with no reduction at all.
//!
//! A plain map from volume to (block → bytes) is obviously correct —
//! every write stores the bytes, every read returns them. The harness
//! executes the same operation sequence against this model and the system
//! under test — the bare [`VolumeManager`](dr_reduction::VolumeManager)
//! or the multi-node [`Cluster`](dr_cluster::Cluster), which share one
//! volume contract; any divergence in results *or in error kinds* is a bug
//! in the reduction stack (or, in principle, in the model — but the model
//! is small enough to audit by eye, which is the point).

use std::collections::BTreeMap;

/// Error *kinds* the oracle predicts. These mirror
/// [`VolumeError`](dr_reduction::VolumeError) variants one-to-one minus
/// `ReadFailed`, which has no model analogue: the device layer must absorb
/// its own (transient) failures, so a surviving read failure is a checker
/// finding, not an expected outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelError {
    /// No volume with that name exists.
    UnknownVolume,
    /// A volume with that name already exists.
    AlreadyExists,
    /// The volume name is too long.
    NameTooLong,
    /// The block index is outside the volume.
    OutOfRange,
    /// The block was never written.
    Unwritten,
    /// A write payload was not a whole number of chunks.
    Misaligned,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ModelError::UnknownVolume => "unknown-volume",
            ModelError::AlreadyExists => "already-exists",
            ModelError::NameTooLong => "name-too-long",
            ModelError::OutOfRange => "out-of-range",
            ModelError::Unwritten => "unwritten",
            ModelError::Misaligned => "misaligned",
        };
        f.write_str(name)
    }
}

/// The reference volume array. No dedup, no compression, no devices —
/// just bytes in a map per volume.
#[derive(Debug, Default)]
pub struct Oracle {
    chunk_bytes: usize,
    volumes: BTreeMap<String, Volume>,
}

#[derive(Debug, Default)]
struct Volume {
    /// Size in blocks.
    size: u64,
    /// Block → stored chunk. Absent = never written (or lost).
    blocks: BTreeMap<u64, Vec<u8>>,
}

impl Oracle {
    /// A fresh, empty oracle for `chunk_bytes`-sized blocks.
    pub fn new(chunk_bytes: usize) -> Self {
        Oracle {
            chunk_bytes,
            ..Oracle::default()
        }
    }

    /// Mirrors `create_volume` on either system under test.
    ///
    /// # Errors
    ///
    /// [`ModelError::NameTooLong`] / [`ModelError::AlreadyExists`].
    pub fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), ModelError> {
        if name.len() > dr_reduction::VolumeManager::MAX_NAME_BYTES {
            return Err(ModelError::NameTooLong);
        }
        if self.volumes.contains_key(name) {
            return Err(ModelError::AlreadyExists);
        }
        let volume = Volume {
            size: blocks,
            ..Volume::default()
        };
        self.volumes.insert(name.to_owned(), volume);
        Ok(())
    }

    /// Mirrors [`VolumeManager::write`](dr_reduction::VolumeManager::write)
    /// and the cluster front-end's: same validation order (alignment,
    /// existence, range), so error kinds line up exactly.
    ///
    /// # Errors
    ///
    /// [`ModelError::Misaligned`] / [`ModelError::UnknownVolume`] /
    /// [`ModelError::OutOfRange`].
    pub fn write(&mut self, name: &str, start_block: u64, data: &[u8]) -> Result<(), ModelError> {
        if data.is_empty() || !data.len().is_multiple_of(self.chunk_bytes) {
            return Err(ModelError::Misaligned);
        }
        let n = (data.len() / self.chunk_bytes) as u64;
        let volume = self
            .volumes
            .get_mut(name)
            .ok_or(ModelError::UnknownVolume)?;
        if start_block
            .checked_add(n)
            .is_none_or(|end| end > volume.size)
        {
            return Err(ModelError::OutOfRange);
        }
        for (i, chunk) in data.chunks(self.chunk_bytes).enumerate() {
            volume.blocks.insert(start_block + i as u64, chunk.to_vec());
        }
        Ok(())
    }

    /// Mirrors [`VolumeManager::read`](dr_reduction::VolumeManager::read).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownVolume`] / [`ModelError::OutOfRange`] /
    /// [`ModelError::Unwritten`].
    pub fn read(&self, name: &str, block: u64) -> Result<&[u8], ModelError> {
        let volume = self.volumes.get(name).ok_or(ModelError::UnknownVolume)?;
        if block >= volume.size {
            return Err(ModelError::OutOfRange);
        }
        volume
            .blocks
            .get(&block)
            .map(Vec::as_slice)
            .ok_or(ModelError::Unwritten)
    }

    /// Makes a block unwritten again — a cluster node crash may lose a
    /// block nothing was acknowledged for.
    pub fn forget(&mut self, name: &str, block: u64) {
        if let Some(volume) = self.volumes.get_mut(name) {
            volume.blocks.remove(&block);
        }
    }

    /// Size of `name` in blocks, if it exists.
    pub fn volume_size(&self, name: &str) -> Option<u64> {
        self.volumes.get(name).map(|v| v.size)
    }

    /// Every written (volume, block) pair, in (name, block) order.
    pub fn written_blocks(&self) -> impl Iterator<Item = (&str, u64)> {
        self.volumes
            .iter()
            .flat_map(|(name, v)| v.blocks.keys().map(move |&block| (name.as_str(), block)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_round_trips_and_mirrors_error_kinds() {
        let mut m = Oracle::new(4);
        assert_eq!(m.create_volume("v", 2), Ok(()));
        assert_eq!(m.create_volume("v", 2), Err(ModelError::AlreadyExists));
        let long = "v".repeat(dr_reduction::VolumeManager::MAX_NAME_BYTES + 1);
        assert_eq!(m.create_volume(&long, 2), Err(ModelError::NameTooLong));
        assert_eq!(m.volume_size(&long), None);
        assert_eq!(m.write("v", 0, &[1, 2, 3]), Err(ModelError::Misaligned));
        assert_eq!(m.write("x", 0, &[0; 4]), Err(ModelError::UnknownVolume));
        assert_eq!(m.write("v", 1, &[0; 8]), Err(ModelError::OutOfRange));
        // A range whose end overflows is out of range, and stores nothing.
        assert_eq!(m.write("v", u64::MAX, &[0; 4]), Err(ModelError::OutOfRange));
        assert_eq!(
            m.write("v", u64::MAX - 1, &[0; 8]),
            Err(ModelError::OutOfRange)
        );
        assert_eq!(m.written_blocks().count(), 0);
        assert_eq!(m.write("v", 0, &[7; 8]), Ok(()));
        assert_eq!(m.read("v", 1), Ok(&[7u8; 4][..]));
        assert_eq!(m.read("v", 2), Err(ModelError::OutOfRange));
        assert_eq!(m.write("v", 1, &[9; 4]), Ok(()));
        assert_eq!(m.read("v", 1), Ok(&[9u8; 4][..]));
        assert_eq!(m.volume_size("v"), Some(2));
    }

    #[test]
    fn unwritten_blocks_are_distinguished() {
        let mut m = Oracle::new(4);
        m.create_volume("v", 4).unwrap();
        m.write("v", 2, &[1; 4]).unwrap();
        assert_eq!(m.read("v", 0), Err(ModelError::Unwritten));
        assert_eq!(m.written_blocks().collect::<Vec<_>>(), [("v", 2)]);
        m.forget("v", 2);
        assert_eq!(m.read("v", 2), Err(ModelError::Unwritten));
    }
}
