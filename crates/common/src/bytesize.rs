//! Human-friendly byte quantities.
//!
//! Dataset sizes in the paper span 50 GB to 3 TB; the reproduction harness and
//! the cluster simulator pass sizes around constantly, so a small dedicated
//! type keeps units honest (everything is decimal, matching how the paper and
//! storage vendors quote sizes: 1 KB = 1000 B).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A quantity of bytes. Wraps `u64`; arithmetic saturates on overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    pub const KB: u64 = 1_000;
    pub const MB: u64 = 1_000_000;
    pub const GB: u64 = 1_000_000_000;
    pub const TB: u64 = 1_000_000_000_000;

    /// Construct from raw bytes.
    pub const fn b(n: u64) -> Self {
        ByteSize(n)
    }
    /// Construct from kilobytes (decimal).
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * Self::KB)
    }
    /// Construct from megabytes (decimal).
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * Self::MB)
    }
    /// Construct from gigabytes (decimal).
    pub const fn gb(n: u64) -> Self {
        ByteSize(n * Self::GB)
    }
    /// Construct from terabytes (decimal).
    pub const fn tb(n: u64) -> Self {
        ByteSize(n * Self::TB)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
    /// As `f64` — convenient for the fluid simulator's rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    /// Fractional gigabytes.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / Self::GB as f64
    }

    /// Scale by a float ratio, rounding to nearest byte (clamped at 0).
    pub fn scale(self, ratio: f64) -> Self {
        ByteSize((self.0 as f64 * ratio).round().max(0.0) as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: Self) -> Self {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: Self) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: Self) -> Self {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> Self {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> Self {
        ByteSize(self.0 / rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= Self::TB {
            write!(f, "{:.2} TB", b as f64 / Self::TB as f64)
        } else if b >= Self::GB {
            write!(f, "{:.2} GB", b as f64 / Self::GB as f64)
        } else if b >= Self::MB {
            write!(f, "{:.2} MB", b as f64 / Self::MB as f64)
        } else if b >= Self::KB {
            write!(f, "{:.2} KB", b as f64 / Self::KB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_units() {
        assert_eq!(ByteSize::kb(2).as_u64(), 2_000);
        assert_eq!(ByteSize::mb(1).as_u64(), 1_000_000);
        assert_eq!(ByteSize::gb(50).as_gb(), 50.0);
        assert_eq!(ByteSize::tb(3).as_u64(), 3 * ByteSize::TB);
    }

    #[test]
    fn arithmetic_saturates() {
        let max = ByteSize(u64::MAX);
        assert_eq!((max + ByteSize(1)).as_u64(), u64::MAX);
        assert_eq!((ByteSize(5) - ByteSize(9)).as_u64(), 0);
        assert_eq!((ByteSize::mb(3) * 2).as_u64(), 6_000_000);
        assert_eq!((ByteSize::mb(6) / 3).as_u64(), 2_000_000);
    }

    #[test]
    fn scaling_rounds() {
        assert_eq!(ByteSize(100).scale(0.333).as_u64(), 33);
        assert_eq!(ByteSize(100).scale(-1.0).as_u64(), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::kb(3).to_string(), "3.00 KB");
        assert_eq!(ByteSize::gb(50).to_string(), "50.00 GB");
        assert_eq!(ByteSize::tb(3).to_string(), "3.00 TB");
    }
}
