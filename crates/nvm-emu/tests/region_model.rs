//! A RAM-backed region holds only what a write has reached — nothing
//! until it is first written, then its first page, then all of it —
//! and answers the rest with zeros; a read, whether it copies, lends
//! or only charges, grows nothing. That must not be visible through
//! the API: random `write` / `read` / guard lend / `charge_read` /
//! `view_mut` / `write_synthetic` / `free` sequences are run against a
//! flat `Vec<u8>` per region and against the same operations on a
//! `MemSpill`-backed twin, and every byte, cost, error and
//! `DeviceStats` value must agree. Only `resident_bytes` may tell the
//! two backings apart, and it must say what the region holds.

use nvm_emu::{DeviceError, MemSpill, MemoryDevice, RegionId, SimDuration, PAGE_SIZE};
use proptest::prelude::*;

const LENGTHS: [usize; 6] = [1, 100, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 64 << 10];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Write,
    Read,
    View,
    ChargeRead,
    ViewMut,
    WriteSynthetic,
    Free,
}

/// Where in a region of `L` bytes an operation lands.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// No bytes, anywhere in `0..=L`.
    Empty,
    /// Inside the first `min(PAGE_SIZE, L)` bytes.
    FirstPage,
    /// Across the first page's end (the whole region when `L` has no
    /// second page).
    Straddle,
    LastByte,
    Whole,
    Anywhere,
    /// Past the region's end: a typed error on both backings.
    PastEnd,
}

#[derive(Clone, Copy, Debug)]
struct Op {
    region: usize,
    kind: Kind,
    shape: Shape,
    a: usize,
    b: usize,
    fill: u8,
}

impl Shape {
    fn range(self, region_len: usize, a: usize, b: usize) -> (usize, usize) {
        let l = region_len;
        let first_page = l.min(PAGE_SIZE);
        match self {
            Shape::Empty => (a % (l + 1), 0),
            Shape::FirstPage => {
                let offset = a % first_page;
                (offset, 1 + b % (first_page - offset))
            }
            Shape::Straddle if l > PAGE_SIZE => {
                let offset = PAGE_SIZE - 1 - a % 64;
                let end = PAGE_SIZE + 1 + b % (l - PAGE_SIZE).min(64);
                (offset, end - offset)
            }
            Shape::Straddle | Shape::Whole => (0, l),
            Shape::LastByte => (l - 1, 1),
            Shape::Anywhere => {
                let offset = a % l;
                (offset, 1 + b % (l - offset))
            }
            Shape::PastEnd => {
                let offset = a % (l + 1);
                (offset, l - offset + 1 + b % 8)
            }
        }
    }
}

fn op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        Just(Kind::Write),
        Just(Kind::Write),
        Just(Kind::Read),
        Just(Kind::View),
        Just(Kind::ChargeRead),
        Just(Kind::ViewMut),
        Just(Kind::WriteSynthetic),
        Just(Kind::Free),
    ];
    let shape = prop_oneof![
        Just(Shape::Empty),
        Just(Shape::FirstPage),
        Just(Shape::FirstPage),
        Just(Shape::Straddle),
        Just(Shape::LastByte),
        Just(Shape::Whole),
        Just(Shape::Anywhere),
        Just(Shape::PastEnd),
    ];
    (
        (0..LENGTHS.len(), kind),
        shape,
        (any::<usize>(), any::<usize>()),
        any::<u8>(),
    )
        .prop_map(|((region, kind), shape, (a, b), fill)| Op {
            region,
            kind,
            shape,
            a,
            b,
            fill,
        })
}

/// What a RAM-backed region may hold, by the accesses it has seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Held {
    Nothing,
    FirstPage,
    All,
}

/// One region on a RAM-backed device and its twin on a spilled one,
/// with what both must hold.
struct Twin {
    ram: MemoryDevice,
    spilled: MemoryDevice,
    region: RegionId,
    model: Vec<u8>,
    held: Held,
}

impl Twin {
    fn new(len: usize) -> Self {
        let ram = MemoryDevice::pcm(1 << 20);
        let spilled = MemoryDevice::pcm(1 << 20);
        spilled.attach_spill(Box::new(MemSpill::new()));
        let mut twin = Twin {
            ram,
            spilled,
            region: RegionId(0),
            model: Vec::new(),
            held: Held::Nothing,
        };
        twin.alloc(len);
        twin
    }

    fn alloc(&mut self, len: usize) {
        self.region = self.ram.alloc(len).unwrap();
        assert_eq!(self.spilled.alloc(len).unwrap(), self.region);
        self.model = vec![0; len];
        self.held = Held::Nothing;
    }

    /// A write to `offset..offset + len`, or a lend for writing, grows
    /// what the RAM-backed region holds.
    fn reach(&mut self, offset: usize, len: usize) {
        if len == 0 || offset + len > self.model.len() {
            return;
        }
        let reached = if offset + len <= PAGE_SIZE {
            Held::FirstPage
        } else {
            Held::All
        };
        self.held = self.held.max(reached);
    }

    /// Run `f` on both devices; the outcomes must be equal.
    fn both<R: PartialEq + std::fmt::Debug>(
        &self,
        what: &str,
        f: impl Fn(&MemoryDevice) -> R,
    ) -> Result<R, TestCaseError> {
        let (ram, spilled) = (f(&self.ram), f(&self.spilled));
        prop_assert_eq!(&ram, &spilled, "{}: RAM-backed vs spilled", what);
        Ok(ram)
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        let len = self.model.len();
        let (offset, n) = op.shape.range(len, op.a, op.b);
        let what = format!("{op:?} on {len} bytes at {offset}+{n}");
        let in_bounds = offset + n <= len;
        let data: Vec<u8> = (0..n).map(|i| op.fill ^ i as u8).collect();
        let region = self.region;
        match op.kind {
            Kind::Write => {
                let cost = self.both(&what, |d| d.write(region, offset, &data, 1))?;
                if let Ok(cost) = cost {
                    prop_assert!(n == 0 || cost > SimDuration::ZERO, "{what}: free write");
                    self.model[offset..offset + n].copy_from_slice(&data);
                    self.reach(offset, n);
                }
                prop_assert_eq!(cost.is_ok(), in_bounds, "{}", what);
            }
            Kind::WriteSynthetic => {
                let cost = self.both(&what, |d| d.write_synthetic(region, offset, n, 1))?;
                prop_assert_eq!(cost.is_ok(), in_bounds, "{}", what);
            }
            Kind::Read => {
                let out = self.both(&what, |d| {
                    let mut buf = vec![0xEE; n];
                    d.read(region, offset, &mut buf, 1).map(|cost| (cost, buf))
                })?;
                if let Ok((_, bytes)) = &out {
                    prop_assert_eq!(&bytes[..], &self.model[offset..offset + n], "{}", what);
                }
                prop_assert_eq!(out.is_ok(), in_bounds, "{}", what);
            }
            Kind::View => {
                let seen = self.both(&what, |d| {
                    let mut g = d.lock();
                    (g.read_view(region, offset, n, 1)).map(|(bytes, cost)| (cost, bytes.to_vec()))
                })?;
                if let Ok((_, bytes)) = &seen {
                    prop_assert_eq!(&bytes[..], &self.model[offset..offset + n], "{}", what);
                }
                prop_assert_eq!(seen.is_ok(), in_bounds, "{}", what);
            }
            Kind::ChargeRead => {
                let cost = self.both(&what, |d| d.lock().charge_read(region, offset, n, 1))?;
                prop_assert_eq!(cost.is_ok(), in_bounds, "{}", what);
            }
            Kind::ViewMut => {
                // A spilled range is lent as zeros, a RAM-backed one as
                // it is: the closure overwrites it all, as it must.
                let lent = self.both(&what, |d| {
                    d.view_mut(region, offset, n, |b| b.copy_from_slice(&data))
                })?;
                if lent.is_ok() {
                    self.model[offset..offset + n].copy_from_slice(&data);
                    self.reach(offset, n);
                }
                prop_assert_eq!(lent.is_ok(), in_bounds, "{}", what);
            }
            Kind::Free => {
                self.both(&what, |d| d.free(region))?.unwrap();
                let again = self.both(&what, |d| d.free(region))?;
                prop_assert_eq!(again, Err(DeviceError::NoSuchRegion(region.0)));
                prop_assert_eq!(self.ram.resident_bytes(), 0, "{}: freed", what);
                self.alloc(len);
            }
        }
        self.check(&what)
    }

    /// Costs already matched per call; the devices' totals and every
    /// byte must too, and the RAM-backed region must hold
    /// what its accesses reached.
    fn check(&self, what: &str) -> Result<(), TestCaseError> {
        let region = self.region;
        self.both(what, MemoryDevice::stats)?;
        self.both(what, MemoryDevice::used)?;
        let len = self.model.len();
        let bytes = self.both(what, |d| {
            let mut buf = vec![0xEE; len];
            d.read(region, 0, &mut buf, 1).map(|_| buf)
        })?;
        prop_assert!(bytes.unwrap() == self.model, "{what}: contents");
        let resident = self.ram.resident_bytes() as usize;
        match self.held {
            Held::Nothing => prop_assert_eq!(resident, 0, "{}: untouched", what),
            Held::FirstPage => prop_assert!(
                resident > 0 && resident <= PAGE_SIZE.min(len),
                "{what}: {resident} resident while inline"
            ),
            Held::All => prop_assert_eq!(resident, len, "{}: materialized", what),
        }
        prop_assert_eq!(self.spilled.resident_bytes(), 0, "{}: spilled", what);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_region_reads_as_its_flat_model_on_either_backing(
        ops in proptest::collection::vec(op(), 1..80)
    ) {
        let mut twins: Vec<Twin> = LENGTHS.iter().map(|&len| Twin::new(len)).collect();
        for twin in &twins {
            twin.check("fresh")?;
        }
        for op in ops {
            twins[op.region].apply(op)?;
        }
    }
}

/// The sequences above reach every state; this pins the transitions
/// on the largest region, one access at a time.
#[test]
fn a_region_holds_nothing_then_its_first_page_then_all_of_it() {
    let len = 64 << 10;
    let d = MemoryDevice::pcm(1 << 20);
    let r = d.alloc(len).unwrap();
    assert_eq!(d.resident_bytes(), 0, "allocated");
    let mut buf = vec![1u8; len];
    d.read(r, 0, &mut buf, 1).unwrap();
    assert!(buf.iter().all(|&b| b == 0), "reads zeros");
    assert_eq!(d.resident_bytes(), 0, "a read grows nothing");
    d.write(r, 8, &[7; 16], 1).unwrap();
    assert_eq!(d.resident_bytes(), PAGE_SIZE as u64, "inline");
    let mut g = d.lock();
    assert_eq!(g.read_view(r, PAGE_SIZE - 4, 5, 1).unwrap().0, [0; 5]);
    g.lend_views(&[(r, 0, len)]).unwrap();
    drop(g);
    assert_eq!(d.resident_bytes(), PAGE_SIZE as u64, "a lend grows nothing");
    d.write(r, PAGE_SIZE - 4, &[1; 4], 1).unwrap();
    assert_eq!(
        d.resident_bytes(),
        PAGE_SIZE as u64,
        "still inside the page"
    );
    d.view_mut(r, PAGE_SIZE - 4, 5, |b| b.fill(2)).unwrap();
    assert_eq!(d.resident_bytes(), len as u64, "materialized");
    let mut g = d.lock();
    assert_eq!(g.read_view(r, 8, 16, 1).unwrap().0, [7; 16]);
}
