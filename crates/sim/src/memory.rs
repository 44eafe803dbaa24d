//! Flat, bounds-checked, little-endian memory.

use std::fmt;

use vp_isa::MemWidth;

/// Error raised by an out-of-range or misaligned memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting byte address.
    pub address: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Whether the access was a store.
    pub store: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {} of {} bytes at {:#x}",
            if self.store { "store" } else { "load" },
            self.size,
            self.address
        )
    }
}

impl std::error::Error for MemFault {}

/// Byte-addressable little-endian memory of fixed size.
///
/// Unwritten bytes read as zero. The full size is reserved up front (one
/// allocation per memory), but no byte is zeroed or made resident until
/// it is written or lies between two written bytes: memory is backed
/// from a low-water mark (the lowest written address, rounded down to a
/// 4 KiB page) up to the highest byte written so far, and reads outside
/// that range return 0. A fresh machine therefore costs its data image,
/// not a memset of its whole address space; a write near the top of
/// memory zero-fills everything between it and the data image.
///
/// Each access is one bound check against the backed range, then a
/// fixed-width little-endian load or store. Everything else (a fault, an
/// access at or across either end of the backed range, a write that
/// extends it) takes a cold path.
///
/// ```
/// use vp_sim::Memory;
/// use vp_isa::MemWidth;
///
/// let mut mem = Memory::new(1024);
/// mem.write(16, MemWidth::D, 0xdead_beef_cafe_f00d).unwrap();
/// assert_eq!(mem.read(16, MemWidth::D).unwrap(), 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(16, MemWidth::B).unwrap(), 0x0d);
/// assert_eq!(mem.read(1016, MemWidth::D).unwrap(), 0); // never written
/// assert!(mem.read(1024, MemWidth::B).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Bytes `[base, written end)`. [`Memory::new`] reserves all `size`
    /// of them, so growing never reallocates.
    bytes: Vec<u8>,
    /// The low-water mark: the address of `bytes[0]`. Bytes below it
    /// read as 0. It starts at `size`, with nothing backed.
    base: u64,
    size: usize,
}

/// Granule the low-water mark moves down by, so that a run of writes
/// walking down through memory shifts the backed bytes once per page.
const PAGE: u64 = 4096;

/// A block of zeros to copy from: copying stays a `memcpy` in
/// unoptimised builds too, where `Vec::resize` or `fill` would store
/// byte by byte.
const ZEROS: [u8; 4096] = [0; 4096];

impl Memory {
    /// Reserves `size` bytes of memory that read as zero.
    pub fn new(size: usize) -> Memory {
        Memory { bytes: Vec::with_capacity(size), base: size as u64, size }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.size as u64
    }

    fn check(&self, address: u64, len: u64, store: bool) -> Result<(), MemFault> {
        match address.checked_add(len) {
            Some(end) if end <= self.size() => Ok(()),
            _ => Err(MemFault { address, size: len, store }),
        }
    }

    /// The `N` backed bytes at `address`, if all of them are backed.
    /// An address below `base` wraps to an offset past any backed byte,
    /// so this one bound covers both ends of the backed range.
    #[inline]
    fn get<const N: usize>(&self, address: u64) -> Option<[u8; N]> {
        let at = address.wrapping_sub(self.base) as usize;
        self.bytes.get(at..at.wrapping_add(N))?.try_into().ok()
    }

    /// Stores `N` bytes at `address` if all of them are backed.
    #[inline]
    fn put<const N: usize>(&mut self, address: u64, bytes: [u8; N]) -> bool {
        let at = address.wrapping_sub(self.base) as usize;
        match self.bytes.get_mut(at..at.wrapping_add(N)) {
            Some(dst) => {
                dst.copy_from_slice(&bytes);
                true
            }
            None => false,
        }
    }

    /// Reads `width` bytes at `address`, zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    #[inline(always)]
    pub fn read(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        let value = match width {
            MemWidth::B => self.get::<1>(address).map(|b| u64::from(b[0])),
            MemWidth::H => self.get(address).map(|b| u64::from(u16::from_le_bytes(b))),
            MemWidth::W => self.get(address).map(|b| u64::from(u32::from_le_bytes(b))),
            MemWidth::D => self.get(address).map(u64::from_le_bytes),
        };
        match value {
            Some(value) => Ok(value),
            None => self.read_cold(address, width),
        }
    }

    /// A read that is not wholly backed: it faults, or reads each byte
    /// outside `[base, written end)` as 0.
    #[cold]
    #[inline(never)]
    fn read_cold(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        self.check(address, width.bytes(), false)?;
        let mut buf = [0u8; 8];
        for (a, byte) in (address..).zip(&mut buf[..width.bytes() as usize]) {
            let at = a.wrapping_sub(self.base) as usize;
            *byte = self.bytes.get(at).copied().unwrap_or(0);
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `width` bytes at `address`, sign-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    #[inline(always)]
    pub fn read_signed(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        // Extending in the load's own arm dispatches on the width once.
        let value = match width {
            MemWidth::B => self.get::<1>(address).map(|b| b[0] as i8 as u64),
            MemWidth::H => self.get(address).map(|b| i16::from_le_bytes(b) as u64),
            MemWidth::W => self.get(address).map(|b| i32::from_le_bytes(b) as u64),
            MemWidth::D => self.get(address).map(u64::from_le_bytes),
        };
        match value {
            Some(value) => Ok(value),
            None => {
                let raw = self.read_cold(address, width)?;
                let unused = 64 - 8 * width.bytes();
                Ok((((raw << unused) as i64) >> unused) as u64)
            }
        }
    }

    /// Writes the low `width` bytes of `value` at `address`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    #[inline(always)]
    pub fn write(&mut self, address: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        let le = value.to_le_bytes();
        let done = match width {
            MemWidth::B => self.put(address, [le[0]]),
            MemWidth::H => self.put(address, [le[0], le[1]]),
            MemWidth::W => self.put(address, [le[0], le[1], le[2], le[3]]),
            MemWidth::D => self.put(address, le),
        };
        if done {
            return Ok(());
        }
        self.write_cold(address, &le[..width.bytes() as usize])
    }

    /// Copies a byte slice into memory at `address` (used by the loader).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the image does not fit.
    pub fn write_bytes(&mut self, address: u64, bytes: &[u8]) -> Result<(), MemFault> {
        self.write_cold(address, bytes)
    }

    /// A write that is not wholly backed: it faults, or first extends
    /// the backed range to cover `[address, address + bytes.len())`.
    #[cold]
    #[inline(never)]
    fn write_cold(&mut self, address: u64, bytes: &[u8]) -> Result<(), MemFault> {
        self.check(address, bytes.len() as u64, true)?;
        if bytes.is_empty() {
            return Ok(());
        }
        if address < self.base {
            self.lower_base(address - address % PAGE);
        }
        let at = (address - self.base) as usize;
        self.fill_to(at + bytes.len());
        self.bytes[at..at + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Moves the low-water mark down to `base`, shifting the backed
    /// bytes up within the reserved capacity and zeroing the gap.
    fn lower_base(&mut self, base: u64) {
        let shift = (self.base - base) as usize;
        let backed = self.bytes.len();
        self.base = base;
        if backed == 0 {
            return;
        }
        self.fill_to(backed + shift);
        self.bytes.copy_within(..backed, shift);
        for chunk in self.bytes[..shift].chunks_mut(ZEROS.len()) {
            chunk.copy_from_slice(&ZEROS[..chunk.len()]);
        }
    }

    /// Zero-fills the backed range up to offset `end` from `base`. It
    /// stays within `size`, so within the reserved capacity.
    fn fill_to(&mut self, end: usize) {
        while self.bytes.len() < end {
            let k = (end - self.bytes.len()).min(ZEROS.len());
            self.bytes.extend_from_slice(&ZEROS[..k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_round_trip() {
        let mut mem = Memory::new(64);
        for (w, v) in [
            (MemWidth::B, 0xab),
            (MemWidth::H, 0xabcd),
            (MemWidth::W, 0xabcd_ef01),
            (MemWidth::D, 0xabcd_ef01_2345_6789),
        ] {
            mem.write(8, w, v).unwrap();
            assert_eq!(mem.read(8, w).unwrap(), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new(16);
        mem.write(0, MemWidth::W, 0x0403_0201).unwrap();
        assert_eq!(mem.read(0, MemWidth::B).unwrap(), 1);
        assert_eq!(mem.read(1, MemWidth::B).unwrap(), 2);
        assert_eq!(mem.read(2, MemWidth::H).unwrap(), 0x0403);
    }

    #[test]
    fn sign_extension() {
        let mut mem = Memory::new(16);
        mem.write(0, MemWidth::B, 0xff).unwrap();
        assert_eq!(mem.read(0, MemWidth::B).unwrap(), 0xff);
        assert_eq!(mem.read_signed(0, MemWidth::B).unwrap(), u64::MAX);
        mem.write(0, MemWidth::W, 0x8000_0000).unwrap();
        assert_eq!(mem.read_signed(0, MemWidth::W).unwrap(), 0xffff_ffff_8000_0000);
        mem.write(0, MemWidth::D, 0x8000_0000).unwrap();
        assert_eq!(mem.read_signed(0, MemWidth::D).unwrap(), 0x8000_0000);
    }

    #[test]
    fn faults_at_bounds() {
        let mut mem = Memory::new(8);
        assert!(mem.read(0, MemWidth::D).is_ok());
        assert!(mem.read(1, MemWidth::D).is_err());
        assert!(mem.write(8, MemWidth::B, 0).is_err());
        assert!(mem.read(u64::MAX, MemWidth::D).is_err()); // overflow guard
        let fault = mem.write(100, MemWidth::H, 0).unwrap_err();
        assert!(fault.store);
        assert_eq!(fault.address, 100);
        assert_eq!(fault.size, 2);
        assert!(fault.to_string().contains("store"));
    }

    #[test]
    fn byte_slices() {
        let mut mem = Memory::new(16);
        mem.write_bytes(4, b"abcd").unwrap();
        assert_eq!(mem.read(4, MemWidth::W).unwrap(), u64::from(u32::from_le_bytes(*b"abcd")));
        assert!(mem.write_bytes(14, b"xyz").is_err());
    }
}
