//! Packet-switched global interconnect between the master controller and
//! the MCE array.
//!
//! §4.2: "The master controller delivers logical instructions to MCE
//! using a packet switched network", and the shared global bus carries
//! logical instructions downstream and syndrome data upstream. This
//! module models that fabric: packets with a small routing header, a
//! tree topology (the master at the root, MCEs at the leaves), per-link
//! byte accounting and hop-latency estimates. It quantifies the
//! *secondary* claim behind QuEST: once QECC traffic is gone, the
//! network can be narrow and packet-switched instead of a wide
//! deterministic broadcast.

use std::fmt;

/// Bytes of routing/flow-control header per packet. The header carries
/// the route plus a CRC-16 over the packet's fields; the CRC is part of
/// these two bytes, so enabling integrity checking does not change the
/// wire byte accounting.
pub const HEADER_BYTES: u64 = 2;

/// Maximum payload per packet (two-byte instructions pack 32 per packet).
pub const MAX_PAYLOAD_BYTES: u64 = 64;

/// Direction of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Master → MCE: logical instructions / cache fills.
    Downstream,
    /// MCE → master: escalated syndrome data.
    Upstream,
}

/// One accounted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination (downstream) or source (upstream) MCE.
    pub mce: usize,
    /// Payload size in bytes (≤ [`MAX_PAYLOAD_BYTES`]).
    pub payload_bytes: u64,
    /// Transfer direction.
    pub kind: PacketKind,
    /// CRC-16/CCITT over the routing fields, sealed at the sender.
    pub crc: u16,
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over `data`.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

impl Packet {
    /// Byte image of the checked fields (what the CRC covers).
    fn checked_bytes(&self) -> [u8; 17] {
        let mut buf = [0u8; 17];
        buf[..8].copy_from_slice(&(self.mce as u64).to_le_bytes());
        buf[8..16].copy_from_slice(&self.payload_bytes.to_le_bytes());
        buf[16] = match self.kind {
            PacketKind::Downstream => 0,
            PacketKind::Upstream => 1,
        };
        buf
    }

    /// Builds a packet with its CRC sealed by the sender.
    pub fn sealed(mce: usize, payload_bytes: u64, kind: PacketKind) -> Packet {
        let mut p = Packet {
            mce,
            payload_bytes,
            kind,
            crc: 0,
        };
        p.crc = crc16(&p.checked_bytes());
        p
    }

    /// Receiver-side integrity check: recompute the CRC over the fields
    /// as received and compare to the sealed value.
    pub fn verify(&self) -> bool {
        crc16(&self.checked_bytes()) == self.crc
    }

    /// A copy of this packet with one bit of its checked fields flipped
    /// in transit (`bit` is taken modulo the two 64-bit routing fields).
    /// Models wire corruption: the CRC still holds the sender's value,
    /// so [`verify`](Packet::verify) fails.
    pub fn with_bit_error(mut self, bit: u32) -> Packet {
        let bit = bit % (16 * 8);
        let mut buf = self.checked_bytes();
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
        // Little-endian reassembly, written out so no slice-length proof
        // (and hence no expect) is needed.
        let word = |at: usize| (0..8).fold(0u64, |w, i| w | u64::from(buf[at + i]) << (8 * i));
        self.mce = word(0) as usize;
        self.payload_bytes = word(8);
        self.kind = if buf[16] & 1 == 0 {
            PacketKind::Downstream
        } else {
            PacketKind::Upstream
        };
        self
    }
}

/// A `fanout`-ary tree interconnect over `mces` leaves.
///
/// # Example
///
/// ```
/// use quest_core::network::{Network, PacketKind};
///
/// let mut net = Network::new(64, 4);
/// net.send(7, 300, PacketKind::Downstream);
/// assert_eq!(net.packets_sent(), 5); // 300 B split into 64 B payloads
/// assert!(net.total_bytes() > 300); // headers included
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mces: usize,
    fanout: usize,
    packets: u64,
    payload_bytes: u64,
    header_bytes: u64,
    /// Per-MCE downstream/upstream byte tallies.
    per_mce: Vec<[u64; 2]>,
}

impl Network {
    /// Builds the fabric for `mces` leaves with the given tree fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `mces` is zero or `fanout < 2`.
    pub fn new(mces: usize, fanout: usize) -> Network {
        assert!(mces > 0, "need at least one MCE");
        assert!(fanout >= 2, "tree fan-out must be at least 2");
        Network {
            mces,
            fanout,
            packets: 0,
            payload_bytes: 0,
            header_bytes: 0,
            per_mce: vec![[0, 0]; mces],
        }
    }

    /// Router hops from the master to any MCE (tree depth).
    pub fn hops(&self) -> usize {
        let mut depth = 0usize;
        let mut reach = 1usize;
        while reach < self.mces {
            reach *= self.fanout;
            depth += 1;
        }
        depth.max(1)
    }

    /// Sends `bytes` of payload to/from an MCE, splitting into packets.
    /// Returns the number of packets used.
    ///
    /// # Panics
    ///
    /// Panics if `mce` is out of range.
    pub fn send(&mut self, mce: usize, bytes: u64, kind: PacketKind) -> u64 {
        assert!(mce < self.mces, "MCE {mce} out of range");
        if bytes == 0 {
            return 0;
        }
        let packets = bytes.div_ceil(MAX_PAYLOAD_BYTES);
        self.packets += packets;
        self.payload_bytes += bytes;
        self.header_bytes += packets * HEADER_BYTES;
        let slot = match kind {
            PacketKind::Downstream => 0,
            PacketKind::Upstream => 1,
        };
        self.per_mce[mce][slot] += bytes;
        packets
    }

    /// Packets accounted so far.
    pub fn packets_sent(&self) -> u64 {
        self.packets
    }

    /// Total bytes on the wire (payload + headers).
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.header_bytes
    }

    /// Header overhead as a fraction of wire bytes.
    pub fn header_overhead(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            self.header_bytes as f64 / self.total_bytes() as f64
        }
    }

    /// Downstream bytes delivered to one MCE.
    ///
    /// # Panics
    ///
    /// Panics if `mce` is out of range.
    pub fn downstream_bytes(&self, mce: usize) -> u64 {
        self.per_mce[mce][0]
    }

    /// Upstream bytes received from one MCE.
    ///
    /// # Panics
    ///
    /// Panics if `mce` is out of range.
    pub fn upstream_bytes(&self, mce: usize) -> u64 {
        self.per_mce[mce][1]
    }

    /// End-to-end latency of one packet in seconds, given a per-hop
    /// router latency.
    pub fn packet_latency_s(&self, hop_latency_s: f64) -> f64 {
        self.hops() as f64 * hop_latency_s
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network[{} MCEs, {}-ary, {} hops, {} pkts, {} B]",
            self.mces,
            self.fanout,
            self.hops(),
            self.packets,
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetization_splits_and_counts_headers() {
        let mut net = Network::new(8, 2);
        let pkts = net.send(3, 130, PacketKind::Downstream);
        assert_eq!(pkts, 3); // 64 + 64 + 2
        assert_eq!(net.total_bytes(), 130 + 3 * HEADER_BYTES);
        assert_eq!(net.downstream_bytes(3), 130);
        assert_eq!(net.upstream_bytes(3), 0);
    }

    #[test]
    fn hops_grow_logarithmically() {
        assert_eq!(Network::new(4, 4).hops(), 1);
        assert_eq!(Network::new(16, 4).hops(), 2);
        assert_eq!(Network::new(17, 4).hops(), 3);
        assert_eq!(Network::new(1024, 4).hops(), 5);
    }

    #[test]
    fn zero_byte_sends_are_free() {
        let mut net = Network::new(2, 2);
        assert_eq!(net.send(0, 0, PacketKind::Upstream), 0);
        assert_eq!(net.total_bytes(), 0);
        assert_eq!(net.header_overhead(), 0.0);
    }

    #[test]
    fn header_overhead_small_for_full_packets() {
        let mut net = Network::new(2, 2);
        net.send(0, 64 * 100, PacketKind::Downstream);
        assert!(net.header_overhead() < 0.05);
    }

    #[test]
    fn latency_scales_with_depth() {
        let small = Network::new(4, 4);
        let large = Network::new(4096, 4);
        assert!(large.packet_latency_s(1e-9) > small.packet_latency_s(1e-9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_mce_panics() {
        Network::new(2, 2).send(2, 1, PacketKind::Downstream);
    }

    #[test]
    fn crc16_matches_check_value() {
        // CRC-16/CCITT-FALSE check value for "123456789".
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(&[]), 0xFFFF);
    }

    #[test]
    fn sealed_packets_verify_until_corrupted() {
        let p = Packet::sealed(5, 48, PacketKind::Upstream);
        assert!(p.verify());
        for bit in 0..128 {
            assert!(!p.with_bit_error(bit).verify(), "bit {bit} undetected");
        }
        // A second flip of the same bit restores the packet.
        assert!(p.with_bit_error(3).with_bit_error(3).verify());
    }
}
