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
/// ```
/// use vp_sim::Memory;
/// use vp_isa::MemWidth;
///
/// let mut mem = Memory::new(1024);
/// mem.write(16, MemWidth::D, 0xdead_beef_cafe_f00d).unwrap();
/// assert_eq!(mem.read(16, MemWidth::D).unwrap(), 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(16, MemWidth::B).unwrap(), 0x0d);
/// assert!(mem.read(1024, MemWidth::B).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Memory {
        Memory { bytes: vec![0; size] }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn check(&self, address: u64, width: MemWidth, store: bool) -> Result<usize, MemFault> {
        let size = width.bytes();
        let end = address.checked_add(size).filter(|&e| e <= self.size());
        match end {
            Some(_) => Ok(address as usize),
            None => Err(MemFault { address, size, store }),
        }
    }

    /// Reads `width` bytes at `address`, zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    pub fn read(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        let at = self.check(address, width, false)?;
        let n = width.bytes() as usize;
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(&self.bytes[at..at + n]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `width` bytes at `address`, sign-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    pub fn read_signed(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        let raw = self.read(address, width)?;
        let bits = width.bytes() * 8;
        if bits == 64 {
            return Ok(raw);
        }
        let shift = 64 - bits;
        Ok((((raw << shift) as i64) >> shift) as u64)
    }

    /// Writes the low `width` bytes of `value` at `address`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the access runs past the end of memory.
    pub fn write(&mut self, address: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        let at = self.check(address, width, true)?;
        let n = width.bytes() as usize;
        self.bytes[at..at + n].copy_from_slice(&value.to_le_bytes()[..n]);
        Ok(())
    }

    /// Copies a byte slice into memory at `address` (used by the loader).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the image does not fit.
    pub fn write_bytes(&mut self, address: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let end = address.checked_add(bytes.len() as u64).filter(|&e| e <= self.size());
        match end {
            Some(_) => {
                let at = address as usize;
                self.bytes[at..at + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            None => Err(MemFault { address, size: bytes.len() as u64, store: true }),
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
