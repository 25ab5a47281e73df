//! Fixed-size pages, the unit of disk I/O and of cost accounting.

/// Page size in bytes. The paper's Example 9 assumes 100 × 200-byte tuples
/// per page; 8 KiB with our encoding overhead lands in the same regime.
pub const PAGE_SIZE: usize = 8192;

/// Size of one page record as the [`DiskManager`](crate::DiskManager)
/// stores it: the [`PAGE_SIZE`] payload plus an 8-byte checksum trailer.
pub(crate) const PAGE_RECORD: usize = PAGE_SIZE + 8;

/// A fixed-size page buffer.
///
/// Pages are plain byte arrays; higher layers (heap files, run files,
/// indexes) impose their own layouts. Boxed so a page never sits on the
/// stack. The allocation is one whole record: the eight bytes after the
/// payload are the disk manager's trailer slot, so a page is read from
/// disk straight into the buffer it is returned in. No layer above the
/// disk manager sees the slot.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_RECORD]>,
}

impl Page {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        Self::from_record(vec![0u8; PAGE_RECORD])
    }

    /// Build a page from exactly `PAGE_SIZE` bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page must be exactly PAGE_SIZE");
        let mut p = Page::zeroed();
        p.bytes_mut().copy_from_slice(bytes);
        p
    }

    /// Adopt a record-sized buffer as a page. No copy happens when `buf`'s
    /// capacity equals its length.
    pub(crate) fn from_record(buf: Vec<u8>) -> Self {
        let data = buf.into_boxed_slice().try_into();
        Self {
            data: data.unwrap_or_else(|b: Box<[u8]>| {
                panic!("page record must be {PAGE_RECORD} bytes, got {}", b.len())
            }),
        }
    }

    /// The whole record buffer: payload, then the trailer slot.
    pub(crate) fn record_mut(&mut self) -> &mut [u8; PAGE_RECORD] {
        &mut self.data
    }

    /// Read access to the raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        self.data.first_chunk().expect("record holds a page")
    }

    /// Write access to the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.data.first_chunk_mut().expect("record holds a page")
    }

    /// Read a little-endian `u16` at `off`.
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes()[off..off + 2].try_into().unwrap())
    }

    /// Write a little-endian `u16` at `off`.
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.bytes_mut()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `off`.
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes()[off..off + 4].try_into().unwrap())
    }

    /// Write a little-endian `u32` at `off`.
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.bytes_mut()[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

/// Number of pages needed to hold `bytes` bytes (ceiling division, minimum
/// one page for non-empty payloads).
pub fn pages_for_bytes(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE_SIZE) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn scalar_accessors_roundtrip() {
        let mut p = Page::zeroed();
        p.write_u16(0, 0xBEEF);
        p.write_u32(10, 0xDEAD_BEEF);
        assert_eq!(p.read_u16(0), 0xBEEF);
        assert_eq!(p.read_u32(10), 0xDEAD_BEEF);
    }

    #[test]
    fn from_bytes_copies() {
        let mut src = vec![0u8; PAGE_SIZE];
        src[5] = 42;
        let p = Page::from_bytes(&src);
        assert_eq!(p.bytes()[5], 42);
    }

    #[test]
    #[should_panic]
    fn from_bytes_rejects_wrong_size() {
        let _ = Page::from_bytes(&[0u8; 10]);
    }

    #[test]
    fn pages_for_bytes_is_ceiling() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
    }
}
