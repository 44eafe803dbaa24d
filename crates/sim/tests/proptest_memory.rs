//! Property tests: the emulator's memory against a sparse reference
//! model, for arbitrary access sequences — on a small memory, and on the
//! machine's own 8 MiB layout around its data image (below and across
//! `DATA_BASE` too), its written end and the top of memory.

use std::collections::HashMap;

use proptest::prelude::*;
use vp_asm::DATA_BASE;
use vp_isa::MemWidth;
use vp_sim::{MachineConfig, MemFault, Memory};

const SMALL: u64 = 256;

/// An access address, resolved when the op runs.
#[derive(Debug, Clone, Copy)]
enum Addr {
    /// A fixed address.
    At(u64),
    /// An offset from the written end: one past the highest byte written
    /// so far (0 before any write).
    FromEnd(i64),
}

#[derive(Debug, Clone)]
enum Op {
    Write { addr: Addr, width: MemWidth, value: u64 },
    WriteBytes { addr: Addr, bytes: Vec<u8> },
    Read { addr: Addr, width: MemWidth },
    ReadSigned { addr: Addr, width: MemWidth },
}

fn arb_width() -> impl Strategy<Value = MemWidth> {
    (0usize..4).prop_map(|i| MemWidth::ALL[i])
}

fn arb_op(addr: impl Strategy<Value = Addr> + Clone + 'static) -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr.clone(), arb_width(), any::<u64>()).prop_map(|(addr, width, value)| Op::Write {
            addr,
            width,
            value
        }),
        (addr.clone(), prop::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(addr, bytes)| Op::WriteBytes { addr, bytes }),
        (addr.clone(), arb_width()).prop_map(|(addr, width)| Op::Read { addr, width }),
        (addr, arb_width()).prop_map(|(addr, width)| Op::ReadSigned { addr, width }),
    ]
}

/// Addresses in a small memory: mostly in range, occasionally far out to
/// exercise faults.
fn small_addr() -> impl Strategy<Value = Addr> + Clone {
    prop_oneof![4 => (0..SMALL + 8).prop_map(Addr::At), 1 => any::<u64>().prop_map(Addr::At)]
}

/// Addresses in the machine's memory: at the data image, just below and
/// straddling `DATA_BASE` (below the lowest byte written so far), within
/// 8 bytes of the written end (so reads straddle it), in the top 64
/// bytes, and out of range.
fn layout_addr(size: u64) -> impl Strategy<Value = Addr> + Clone {
    prop_oneof![
        3 => (DATA_BASE..DATA_BASE + 4096).prop_map(Addr::At),
        2 => (DATA_BASE - 16..DATA_BASE + 8).prop_map(Addr::At),
        3 => (-8i64..=8).prop_map(Addr::FromEnd),
        2 => (size - 64..size).prop_map(Addr::At),
        1 => (size - 8..size + 16).prop_map(Addr::At),
        1 => any::<u64>().prop_map(Addr::At),
    ]
}

/// Reference model: a sparse byte map in which every unwritten byte reads
/// as 0, with open-coded little-endian accesses.
struct Model {
    size: u64,
    bytes: HashMap<u64, u8>,
    end: u64,
}

impl Model {
    fn new(size: u64) -> Model {
        Model { size, bytes: HashMap::new(), end: 0 }
    }

    fn resolve(&self, addr: Addr) -> u64 {
        match addr {
            Addr::At(a) => a,
            Addr::FromEnd(d) => self.end.wrapping_add_signed(d),
        }
    }

    fn check(&self, addr: u64, len: u64, store: bool) -> Result<(), MemFault> {
        match addr.checked_add(len) {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemFault { address: addr, size: len, store }),
        }
    }

    fn read(&self, addr: u64, width: MemWidth) -> Result<u64, MemFault> {
        self.check(addr, width.bytes(), false)?;
        let mut v = 0u64;
        for i in (0..width.bytes()).rev() {
            v = (v << 8) | u64::from(self.bytes.get(&(addr + i)).copied().unwrap_or(0));
        }
        Ok(v)
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        self.check(addr, bytes.len() as u64, true)?;
        for (i, &b) in (addr..).zip(bytes) {
            self.bytes.insert(i, b);
            self.end = self.end.max(i + 1);
        }
        Ok(())
    }

    fn write(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        self.write_bytes(addr, &value.to_le_bytes()[..width.bytes() as usize])
    }
}

fn sign_extend(v: u64, width: MemWidth) -> u64 {
    let bits = width.bytes() * 8;
    if bits == 64 {
        return v;
    }
    let shift = 64 - bits;
    (((v << shift) as i64) >> shift) as u64
}

/// Runs `ops` on a fresh memory of `size` bytes and on the model; every
/// result, fault included, must agree.
fn check_against_model(size: u64, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut mem = Memory::new(size as usize);
    let mut model = Model::new(size);
    prop_assert_eq!(mem.size(), size);
    for op in ops {
        match op {
            Op::Write { addr, width, value } => {
                let at = model.resolve(addr);
                prop_assert_eq!(mem.write(at, width, value), model.write(at, width, value));
            }
            Op::WriteBytes { addr, bytes } => {
                let at = model.resolve(addr);
                prop_assert_eq!(mem.write_bytes(at, &bytes), model.write_bytes(at, &bytes));
            }
            Op::Read { addr, width } => {
                let at = model.resolve(addr);
                prop_assert_eq!(mem.read(at, width), model.read(at, width));
            }
            Op::ReadSigned { addr, width } => {
                let at = model.resolve(addr);
                let expected = model.read(at, width).map(|v| sign_extend(v, width));
                prop_assert_eq!(mem.read_signed(at, width), expected);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn memory_matches_reference_model(ops in prop::collection::vec(arb_op(small_addr()), 1..200)) {
        check_against_model(SMALL, ops)?;
    }

    #[test]
    fn machine_layout_matches_sparse_model(
        ops in prop::collection::vec(
            arb_op(layout_addr(MachineConfig::new().memory_bytes() as u64)),
            1..64,
        )
    ) {
        check_against_model(MachineConfig::new().memory_bytes() as u64, ops)?;
    }

    /// Failed accesses leave memory untouched.
    #[test]
    fn faults_have_no_side_effects(addr in (SMALL - 7)..(SMALL + 64)) {
        let mut mem = Memory::new(SMALL as usize);
        mem.write(0, MemWidth::D, 0x0102_0304_0506_0708).unwrap();
        if mem.write(addr, MemWidth::D, u64::MAX).is_err() {
            prop_assert_eq!(mem.read(0, MemWidth::D).unwrap(), 0x0102_0304_0506_0708);
            // Bytes near the boundary also unchanged.
            prop_assert_eq!(mem.read(SMALL - 1, MemWidth::B).unwrap(), 0);
        }
    }
}
