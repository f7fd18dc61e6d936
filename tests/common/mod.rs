//! Shared by the pin tests (`fleet_pins.rs`, `routing_pins.rs`).
#![allow(dead_code)] // each test binary uses its own subset

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.word(u64::from(v.to_bits()));
    }
}
