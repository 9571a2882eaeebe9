//! Virtual time for the emulation.
//!
//! Every performance experiment in this workspace runs against a
//! [`VirtualClock`] rather than the wall clock: data movement charges
//! `size / effective_bandwidth` plus per-page latencies, protection
//! faults charge their measured cost, and so on. This lets benches
//! replay the paper's experiments (48 ranks x ~410 MB checkpoints) in
//! milliseconds of wall time while keeping every latency relationship
//! intact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far
    /// away" sentinel by event schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Time to move `bytes` at `bytes_per_sec`.
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "bandwidth must be positive, got {bytes_per_sec}"
        );
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True iff the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs >= 0.0 && rhs.is_finite());
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// A shared, monotonically non-decreasing virtual clock.
///
/// Cloning a `VirtualClock` yields a handle to the *same* clock: the
/// checkpoint engine, the NVM devices and the workload driver all share
/// one timeline. The clock only ever moves forward; `advance_to` with a
/// past instant is a no-op, which makes it safe for multiple logical
/// actors to race each other to a common barrier time.
#[derive(Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A fresh clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.ns.load(Ordering::Acquire))
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let new = self
            .ns
            .fetch_add(d.0, Ordering::AcqRel)
            .checked_add(d.0)
            .expect("VirtualClock overflow");
        SimTime(new)
    }

    /// Move the clock forward to `t` if `t` is in the future; never
    /// moves it backwards. Returns the (possibly newer) current time.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.ns.load(Ordering::Acquire);
        while cur < t.0 {
            match self
                .ns
                .compare_exchange(cur, t.0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime(cur)
    }
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtualClock({})", self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_nanos(), 1_250_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn duration_for_transfer() {
        // 2 GB/s device moving 2 GiB-ish: 1 GB at 2e9 B/s = 0.5 s.
        let d = SimDuration::for_transfer(1_000_000_000, 2e9);
        assert_eq!(d.as_nanos(), 500_000_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = SimDuration::for_transfer(1, 0.0);
    }

    #[test]
    fn clock_is_shared_and_monotonic() {
        let c1 = VirtualClock::new();
        let c2 = c1.clone();
        c1.advance(SimDuration::from_secs(3));
        assert_eq!(c2.now(), SimTime::from_secs(3));
        // advance_to backwards is a no-op
        c2.advance_to(SimTime::from_secs(1));
        assert_eq!(c1.now(), SimTime::from_secs(3));
        c2.advance_to(SimTime::from_secs(5));
        assert_eq!(c1.now(), SimTime::from_secs(5));
    }

    #[test]
    fn clock_concurrent_advance_to() {
        let c = VirtualClock::new();
        let mut handles = vec![];
        for i in 1..=8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                c.advance_to(SimTime::from_secs(i));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), SimTime::from_secs(8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(6).to_string(), "6.00us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn secs_f64_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        let t = SimTime::from_secs_f64(40.0);
        assert_eq!(t, SimTime::from_secs(40));
    }
}
