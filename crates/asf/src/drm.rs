//! Digital Rights Management (simulated).
//!
//! §2.1: DRM "is the technology for securing content and managing the
//! rights for its access. It is optional in authoring and mandatory for
//! rendering." Here it is a content scrambler: payload bytes are XOR-ed
//! with a keystream derived from a key, and the header records the key id
//! so a player can look up its [`License`]. This is **not** cryptography —
//! it reproduces the *workflow* (protected authoring, license check before
//! rendering) that the paper's stack had, nothing more.

use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{string_len, Reader, Writer};

/// DRM header carried in the ASF header object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrmHeader {
    /// Identifier of the key the content is scrambled with.
    pub key_id: String,
    /// Verification tag: scramble of eight zero bytes, so a license can be
    /// checked without touching media data.
    pub probe: [u8; 8],
}

/// A playback license: key id plus the actual key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct License {
    /// Which content key this license unlocks.
    pub key_id: String,
    /// The key material.
    pub key: u64,
}

impl License {
    /// Creates a license.
    pub fn new(key_id: impl Into<String>, key: u64) -> Self {
        Self {
            key_id: key_id.into(),
            key,
        }
    }
}

/// Deterministic keystream: an xorshift sequence seeded by a splitmix64
/// scramble of the key (so near-identical keys get unrelated streams).
fn keystream(key: u64, len: usize) -> impl Iterator<Item = u8> {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mut state = if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z };
    (0..len).map(move |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state & 0xff) as u8
    })
}

impl DrmHeader {
    /// Builds the header for content protected with `license`.
    pub fn for_license(license: &License) -> Self {
        let mut probe = [0u8; 8];
        for (p, k) in probe.iter_mut().zip(keystream(license.key, 8)) {
            *p ^= k;
        }
        Self {
            key_id: license.key_id.clone(),
            probe,
        }
    }

    /// Checks a license against this header.
    ///
    /// # Errors
    ///
    /// [`AsfError::LicenseRejected`] when the id or key does not match.
    pub fn verify(&self, license: &License) -> Result<(), AsfError> {
        let expected = DrmHeader::for_license(license);
        if license.key_id != self.key_id || expected.probe != self.probe {
            return Err(AsfError::LicenseRejected {
                key_id: self.key_id.clone(),
            });
        }
        Ok(())
    }

    pub(crate) fn wire_len(&self) -> Result<usize, AsfError> {
        Ok(string_len(&self.key_id, "drm key id")? + self.probe.len())
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.string(&self.key_id);
        w.bytes(&self.probe);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, AsfError> {
        let key_id = r.string("drm key id")?;
        let b = r.bytes(8, "drm probe")?;
        let mut probe = [0u8; 8];
        probe.copy_from_slice(b);
        Ok(Self { key_id, probe })
    }
}

/// Scrambles (or, being XOR, unscrambles) `data` in place with `key`.
pub fn scramble_in_place(key: u64, data: &mut [u8]) {
    let len = data.len();
    for (b, k) in data.iter_mut().zip(keystream(key, len)) {
        *b ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_is_involutive() {
        let original = b"the quick brown fox".to_vec();
        let mut data = original.clone();
        scramble_in_place(42, &mut data);
        assert_ne!(data, original);
        scramble_in_place(42, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn wrong_key_does_not_restore() {
        let original = b"lecture".to_vec();
        let mut data = original.clone();
        scramble_in_place(1, &mut data);
        scramble_in_place(2, &mut data);
        assert_ne!(data, original);
    }

    #[test]
    fn license_verification() {
        let lic = License::new("course-101", 777);
        let hdr = DrmHeader::for_license(&lic);
        assert!(hdr.verify(&lic).is_ok());
        assert!(hdr.verify(&License::new("course-101", 778)).is_err());
        assert!(hdr.verify(&License::new("other", 777)).is_err());
    }

    #[test]
    fn header_round_trip() {
        let hdr = DrmHeader::for_license(&License::new("k", 9));
        let mut w = Writer::new();
        hdr.write(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(DrmHeader::read(&mut r).unwrap(), hdr);
    }
}
