//! The persistent record store: the one crash-consistency protocol
//! behind every hardened runtime (§4 of the paper, hardened DiCA-style).
//!
//! A commit *stages* a record into inactive non-volatile space, verified
//! by read-back, and then a single atomic control-word store (≤ 8 bytes,
//! so never torn or corrupted) *publishes* it as the restore point. The
//! store owns every piece of that protocol the runtimes share:
//!
//! * [`verified_poke`], the read-back-verified burst store;
//! * the `[seq u64 | len u32 | crc u32]` record ([`stage_record`],
//!   [`validate_record`]) that every delta record and every baseline
//!   bank is written as;
//! * A/B bank selection with a self-healing fallback
//!   ([`NvStore::select_bank`]);
//! * the delta chain ([`NvStore`]): dirty-word capture, chain replay and
//!   the cursor re-prime that follows it.
//!
//! What stays per runtime is its on-FRAM layout (where banks, journal
//! and control words live, and the format of a full bank — TICS stages
//! its bank as one burst with the sequence number and CRC inside, the
//! baselines use [`RecordBanks`]), the payload it encodes and decodes,
//! and its energy policy: what a commit costs and what happens when
//! staging or the energy budget fails. A commit is therefore "stage →
//! the runtime's own `charge_atomic` policy → [`NvStore::publish`]".
//!
//! Delta records extend full banks incrementally: a committed full bank
//! anchors a chain of records, each carrying only the words the
//! dirty-word monitor saw change since the previous commit. Restore
//! replays the full image first (wiping uncommitted writes), then the
//! chain in sequence order, so reconstruction stays O(image) and a
//! broken chain degrades to its longest valid prefix with a journaled
//! [`TraceEvent::Recovery`]. Sequence numbers are shared by banks and
//! records and burned per commit *attempt*, so a staged-but-unpublished
//! record can never collide with a later committed one.
//!
//! Every fallible function here fails only by propagating a memory (or,
//! for [`NvStore::select_bank`], the caller's validation) error.

use tics_mcu::{Addr, Crc32, Registers};
use tics_trace::TraceEvent;

use crate::machine::Machine;
use crate::Result;

/// Read-back verification attempts for a staged store. Each attempt
/// re-draws the corruption RNG, so retries converge whenever the
/// per-store corruption probability is below 1.
pub const VERIFY_ATTEMPTS: u32 = 16;

/// Record header: `u64` sequence number (never 0 once committed), `u32`
/// payload length, `u32` CRC-32 over sequence + length + payload.
pub const RECORD_HEADER: u32 = 16;

/// Fixed prefix of every delta payload, ahead of its 8-byte
/// `(u32 address, u32 value)` word entries: the registers and whatever
/// else a runtime re-captures at each incremental commit. The store
/// treats it as opaque; each runtime encodes and decodes its own.
pub const DELTA_PREFIX: usize = 24;

/// Pokes `bytes` at `a` and reads them back, retrying until the write
/// landed intact. Multi-word stores can be bit-flipped or dropped by a
/// brown-out ([`tics_mcu::CorruptionModel`]); read-back verification is
/// what makes a *committed* record trustworthy. Returns `false` if
/// corruption defeated every attempt.
pub fn verified_poke(m: &mut Machine, a: Addr, bytes: &[u8]) -> Result<bool> {
    for _ in 0..VERIFY_ATTEMPTS {
        m.mem.poke_bytes(a, bytes)?;
        if m.mem.peek_slice(a, bytes.len() as u32)? == bytes {
            return Ok(true);
        }
    }
    Ok(false)
}

fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(&seq.to_le_bytes());
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    h.finish()
}

/// Stages `payload` as a record at `at` under sequence number `seq`.
/// Header and payload are two verified pokes, so no temporary record
/// image is built. Returns `false` if corruption defeated staging.
pub fn stage_record(m: &mut Machine, at: Addr, seq: u64, payload: &[u8]) -> Result<bool> {
    let mut head = [0u8; RECORD_HEADER as usize];
    head[0..8].copy_from_slice(&seq.to_le_bytes());
    head[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[12..16].copy_from_slice(&record_crc(seq, payload).to_le_bytes());
    Ok(verified_poke(m, at, &head)? && verified_poke(m, at.offset(RECORD_HEADER), payload)?)
}

/// Validates the record at `at`: nonzero sequence number, payload length
/// at most `max_payload`, matching CRC. Returns `(seq, payload_len)`.
pub fn validate_record(m: &Machine, at: Addr, max_payload: u32) -> Result<Option<(u64, u32)>> {
    let head = m.mem.peek_slice(at, RECORD_HEADER)?;
    let seq = u64::from_le_bytes(head[0..8].try_into().expect("8-byte seq"));
    let len = u32::from_le_bytes(head[8..12].try_into().expect("4-byte len"));
    let stored = u32::from_le_bytes(head[12..16].try_into().expect("4-byte crc"));
    if seq == 0 || len > max_payload {
        return Ok(None);
    }
    let payload = m.mem.peek_slice(at.offset(RECORD_HEADER), len)?;
    Ok((record_crc(seq, payload) == stored).then_some((seq, len)))
}

/// Delta-journal capacity for full banks of `bank_bytes` each: roomy
/// enough for many small records between full images, bounded so
/// boot-time chain replay stays O(image).
#[must_use]
pub fn journal_capacity(bank_bytes: u32) -> u32 {
    (2 * bank_bytes).clamp(1_024, 8_192)
}

/// Where a runtime's layout puts the control words the store publishes
/// through. Each is a single ≤ 8-byte store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlWords {
    /// `u32` valid-bank flag: 0 = none, 1 = bank A, 2 = bank B.
    pub flag: Addr,
    /// `u64` sequence number of the full bank the delta chain extends.
    pub delta_base: Addr,
    /// `u64` highest committed delta sequence (0 = no chain).
    pub delta_tip: Addr,
}

/// Boot-time bank choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankChoice {
    /// No committed bank: plain restart. A fully staged bank whose flag
    /// never flipped is uncommitted and is not restored.
    None,
    /// Both banks invalid: the flag was cleared and a fresh-start
    /// [`TraceEvent::Recovery`] emitted — restart with globals
    /// re-initialized.
    FreshStart,
    /// Restore from bank `which` (1 = A, 2 = B), committed at `seq`.
    Bank {
        /// The bank (1 or 2).
        which: u32,
        /// Its sequence number.
        seq: u64,
    },
}

/// A commit attempt after phase 1, awaiting the runtime's energy policy
/// and then [`NvStore::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staged {
    /// Sequence number burned by this attempt.
    pub seq: u64,
    /// Bank the full image was staged into (1 or 2); 0 for a delta
    /// record.
    pub bank: u32,
    /// Payload bytes staged (record header excluded).
    pub len: u32,
    /// Every staging write was verified by read-back.
    pub ok: bool,
}

impl Staged {
    /// Whether this is an incremental (delta) record.
    #[must_use]
    pub fn is_delta(&self) -> bool {
        self.bank == 0
    }
}

/// What a boot-time chain replay restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replayed {
    /// Record bytes (headers included) replayed.
    pub bytes: u32,
    /// The last valid record's prefix (the registers at that commit);
    /// `None` when no record was replayed.
    pub prefix: Option<[u8; DELTA_PREFIX]>,
}

/// A runtime's persistent record store: where its control words and
/// delta journal live, plus a host-side cache of the chain's write
/// cursor. The persistent truth is the control words and the journal
/// records; the cache is rebuilt from them on every boot, so it holds no
/// state a real MCU would lose at a power failure.
#[derive(Debug, Default)]
pub struct NvStore {
    ctrl: CtrlWords,
    journal: Addr,
    capacity: u32,
    /// Staging offset of the next delta record (end of the chain).
    write_off: u32,
    /// Next commit sequence number; 0 = cold (re-primed before the next
    /// commit).
    next_seq: u64,
    /// Whether a committed full bank anchors the chain. Deltas are only
    /// taken while anchored; everything else falls back to full images.
    anchored: bool,
    /// Reusable staging buffer — commit and restore allocate nothing in
    /// steady state.
    pub scratch: Vec<u8>,
}

impl NvStore {
    /// Places the store: its control words and a delta journal of
    /// `capacity` bytes at `journal`.
    pub fn place(&mut self, ctrl: CtrlWords, journal: Addr, capacity: u32) {
        self.ctrl = ctrl;
        self.journal = journal;
        self.capacity = capacity;
    }

    /// Forgets placement and the cached cursor, keeping the staging
    /// allocation — for a runtime recycled onto a fresh device.
    pub fn recycle(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        *self = NvStore {
            scratch,
            ..NvStore::default()
        };
    }

    /// Base of the delta journal: where a chain's first record sits.
    #[must_use]
    pub fn journal(&self) -> Addr {
        self.journal
    }

    /// The valid-bank flag.
    pub fn flag(&self, m: &Machine) -> Result<u32> {
        Ok(m.mem.peek_u32(self.ctrl.flag)?)
    }

    /// Whether a committed full bank anchors the delta chain.
    #[must_use]
    pub fn is_anchored(&self) -> bool {
        self.anchored
    }

    fn prime(&mut self, next_seq: u64, write_off: u32, anchored: bool) {
        self.next_seq = next_seq;
        self.write_off = write_off;
        self.anchored = anchored;
    }

    /// Re-primes the cursor from non-volatile state alone (no chain
    /// walk): the next sequence number lies past `newest_bank` (the
    /// newest full-bank sequence the runtime's layout records) and the
    /// chain tip; the chain is not anchored, so the next commit is a
    /// full image.
    pub fn prime_cold(&mut self, m: &Machine, newest_bank: u64) -> Result<()> {
        let tip = m.mem.peek_u64(self.ctrl.delta_tip)?;
        self.prime(newest_bank.max(tip) + 1, 0, false);
        Ok(())
    }

    /// [`prime_cold`](NvStore::prime_cold) if the cursor is cold (first
    /// commit since placement); `newest_bank` is only evaluated then.
    pub fn prime_if_cold(
        &mut self,
        m: &Machine,
        newest_bank: impl FnOnce(&Machine) -> Result<u64>,
    ) -> Result<()> {
        if self.next_seq == 0 {
            self.prime_cold(m, newest_bank(m)?)?;
        }
        Ok(())
    }

    /// Boot-time bank selection. `validate(m, which)` checks bank 1 or 2
    /// in the runtime's own format and returns its sequence number if
    /// valid. An invalid active bank falls back to the other valid bank
    /// (repairing the flag and emitting a [`TraceEvent::Recovery`]); with
    /// neither valid the flag is cleared and recovery degrades to
    /// [`BankChoice::FreshStart`] rather than executing from a corrupted
    /// checkpoint.
    pub fn select_bank(
        &self,
        m: &mut Machine,
        mut validate: impl FnMut(&Machine, u32) -> Result<Option<u64>>,
    ) -> Result<BankChoice> {
        let flag = self.flag(m)?;
        if flag == 0 {
            return Ok(BankChoice::None);
        }
        let v_a = validate(m, 1)?;
        let v_b = validate(m, 2)?;
        let active = match flag {
            1 => v_a,
            2 => v_b,
            _ => None, // corrupt flag: fall through to highest-seq repair
        };
        if let Some(seq) = active {
            return Ok(BankChoice::Bank { which: flag, seq });
        }
        let best = match (v_a, v_b) {
            (Some(a), Some(b)) if a >= b => Some((1, a)),
            (Some(a), None) => Some((1, a)),
            (_, Some(b)) => Some((2, b)),
            (None, None) => None,
        };
        m.mem.poke_u32(self.ctrl.flag, best.map_or(0, |(w, _)| w))?;
        m.emit(TraceEvent::Recovery {
            invalid_banks: if best.is_some() { 1 } else { 2 },
            fresh_start: best.is_none(),
        });
        Ok(
            best.map_or(BankChoice::FreshStart, |(which, seq)| BankChoice::Bank {
                which,
                seq,
            }),
        )
    }

    /// Whether the dirty words of `regions` may commit as a delta record
    /// instead of a full image of `full_bytes`: the chain must be
    /// anchored, the record must be meaningfully smaller than a full
    /// image, and the chain stays byte-capped at roughly one full image —
    /// every boot replays the whole chain after the full-image restore,
    /// so an unbounded chain would inflate the restore charge past what
    /// a short on-period can cover (the exact livelock incremental
    /// checkpointing exists to prevent).
    #[must_use]
    pub fn can_delta(&self, m: &Machine, regions: &[(Addr, u32)], full_bytes: u32) -> bool {
        let dirty: u32 = regions
            .iter()
            .map(|&(start, len)| m.mem.count_dirty_words(start, len))
            .sum();
        let plen = DELTA_PREFIX as u32 + 8 * dirty;
        let cap = self.capacity.min(full_bytes.max(512));
        self.anchored && self.write_off + RECORD_HEADER + plen <= cap && 4 * plen < 3 * full_bytes
    }

    fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Phase 1 of an incremental commit: burns a sequence number and
    /// stages, at the end of the chain, a record of `prefix` plus one
    /// `(address, value)` entry per dirty word of `regions`. Word values
    /// at region edges are clamped — the entry address is the first byte
    /// inside the region and the value carries only the in-region bytes,
    /// zero-padded — so replay, which clamps identically against the same
    /// region list, never touches memory outside the checkpointed
    /// regions.
    pub fn stage_delta(
        &mut self,
        m: &mut Machine,
        prefix: &[u8; DELTA_PREFIX],
        regions: &[(Addr, u32)],
    ) -> Result<Staged> {
        let seq = self.take_seq();
        let out = &mut self.scratch;
        out.clear();
        out.extend_from_slice(prefix);
        for &(start, len) in regions {
            let end = start.raw() + len;
            m.mem.for_each_dirty_word(start, len, |w| {
                let lo = w.raw().max(start.raw());
                let n = (w.raw() + 4).min(end) - lo;
                let src = m
                    .mem
                    .peek_slice(Addr(lo), n)
                    .expect("dirty word inside a mapped checkpoint region");
                let mut val = [0u8; 4];
                val[..n as usize].copy_from_slice(src);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&val);
            });
        }
        let ok = stage_record(m, self.journal.offset(self.write_off), seq, out)?;
        Ok(Staged {
            seq,
            bank: 0,
            len: out.len() as u32,
            ok,
        })
    }

    /// Phase 1 of a full commit, layout side: the inactive bank and a
    /// freshly burned sequence number. The runtime stages its image
    /// there in its own format.
    pub fn next_full(&mut self, m: &Machine) -> Result<(u32, u64)> {
        let bank = if self.flag(m)? == 1 { 2 } else { 1 };
        Ok((bank, self.take_seq()))
    }

    /// Phase 2: one atomic control-word store makes the staged record the
    /// restore point — the chain tip for a delta record; the bank flag
    /// for a full image, which also anchors a fresh, empty chain.
    pub fn publish(&mut self, m: &mut Machine, s: Staged) -> Result<()> {
        if s.is_delta() {
            m.mem.poke_u64(self.ctrl.delta_tip, s.seq)?;
            self.write_off += RECORD_HEADER + s.len;
        } else {
            m.mem.poke_u32(self.ctrl.flag, s.bank)?;
            m.mem.poke_u64(self.ctrl.delta_base, s.seq)?;
            m.mem.poke_u64(self.ctrl.delta_tip, 0)?;
            self.prime(self.next_seq, 0, true);
        }
        Ok(())
    }

    /// Validates the delta record at journal offset `off`: in bounds,
    /// seq/len/CRC intact, sequence exactly `expected`, and structurally
    /// a delta payload (prefix plus whole 8-byte entries). Returns the
    /// payload length.
    fn validate_delta(&self, m: &Machine, off: u32, expected: u64) -> Result<Option<u32>> {
        if off + RECORD_HEADER > self.capacity {
            return Ok(None);
        }
        let max = self.capacity - off - RECORD_HEADER;
        Ok(match validate_record(m, self.journal.offset(off), max)? {
            Some((seq, len))
                if seq == expected
                    && len >= DELTA_PREFIX as u32
                    && (len - DELTA_PREFIX as u32).is_multiple_of(8) =>
            {
                Some(len)
            }
            _ => None,
        })
    }

    /// Replays the delta chain after the full image of the bank committed
    /// at `bank_seq` has been restored, then re-primes the cursor. Records
    /// must carry consecutive sequence numbers `bank_seq + 1..=tip`; each
    /// valid record's entries are applied in order, clamped to `regions`.
    /// A record that fails validation ends the walk with a
    /// [`TraceEvent::Recovery`]: the state is then the longest valid
    /// prefix — itself a committed checkpoint — and the chain is no
    /// longer extended. A chain anchored at a different bank (after a
    /// fallback to the older bank) is ignored; the next commit re-anchors
    /// with a full image.
    pub fn replay(
        &mut self,
        m: &mut Machine,
        bank_seq: u64,
        regions: &[(Addr, u32)],
    ) -> Result<Replayed> {
        let chain_base = m.mem.peek_u64(self.ctrl.delta_base)?;
        let tip = m.mem.peek_u64(self.ctrl.delta_tip)?;
        let mut out = Replayed {
            bytes: 0,
            prefix: None,
        };
        if chain_base != bank_seq {
            self.prime(bank_seq.max(chain_base).max(tip) + 1, 0, false);
            return Ok(out);
        }
        let mut off = 0u32;
        let mut last = bank_seq;
        while last < tip {
            let Some(len) = self.validate_delta(m, off, last + 1)? else {
                m.emit(TraceEvent::Recovery {
                    invalid_banks: 1,
                    fresh_start: false,
                });
                self.prime(tip + 1, off, false);
                return Ok(out);
            };
            let rec = self.journal.offset(off + RECORD_HEADER);
            let mut prefix = [0u8; DELTA_PREFIX];
            prefix.copy_from_slice(m.mem.peek_slice(rec, DELTA_PREFIX as u32)?);
            out.prefix = Some(prefix);
            for p in (DELTA_PREFIX as u32..len).step_by(8) {
                let e = m.mem.peek_slice(rec.offset(p), 8)?;
                let lo = u32::from_le_bytes(e[0..4].try_into().expect("4-byte addr"));
                let val: [u8; 4] = e[4..8].try_into().expect("4-byte value");
                if let Some(&(start, rlen)) = regions
                    .iter()
                    .find(|&&(start, rlen)| lo >= start.raw() && lo < start.raw() + rlen)
                {
                    let n = ((lo & !3) + 4).min(start.raw() + rlen) - lo;
                    m.mem.poke_bytes(Addr(lo), &val[..n as usize])?;
                }
            }
            last += 1;
            out.bytes += RECORD_HEADER + len;
            off += RECORD_HEADER + len;
        }
        self.prime(last + 1, off, true);
        Ok(out)
    }
}

/// The A/B banks of the record-format runtimes (Ratchet, Chinchilla, the
/// task kernels). Each bank is one record whose payload is a 20-byte
/// misc block — the register file and one runtime-specific `u32` (a
/// frame or stack length) — followed by the runtime's state image. Their
/// delta records carry the same misc block behind a `u32` length word;
/// together they make up the [`DELTA_PREFIX`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordBanks {
    /// Bank A (flag value 1).
    pub a: Addr,
    /// Bank B (flag value 2).
    pub b: Addr,
    /// Largest valid payload.
    pub max_payload: u32,
}

/// Bytes of the record banks' misc block.
const MISC: usize = DELTA_PREFIX - 4;

impl RecordBanks {
    /// Bank `which` (1 = A, anything else = B).
    #[must_use]
    pub fn at(&self, which: u32) -> Addr {
        if which == 1 {
            self.a
        } else {
            self.b
        }
    }

    /// The sequence number of bank `which` if it validates.
    pub fn validate(&self, m: &Machine, which: u32) -> Result<Option<u64>> {
        Ok(validate_record(m, self.at(which), self.max_payload)?.map(|(seq, _)| seq))
    }

    /// The newest valid bank's sequence number (0 if neither is valid).
    pub fn newest(&self, m: &Machine) -> Result<u64> {
        Ok(self
            .validate(m, 1)?
            .unwrap_or(0)
            .max(self.validate(m, 2)?.unwrap_or(0)))
    }

    /// Phase 1: an incremental record of the dirty words of `regions`
    /// when `delta_ok` and the chain can take it, else a full image —
    /// the misc block, then the `image` ranges — into the inactive bank.
    /// `extra` is the runtime's misc word.
    pub fn stage(
        &self,
        m: &mut Machine,
        store: &mut NvStore,
        delta_ok: bool,
        extra: u32,
        regions: &[(Addr, u32)],
        image: &[(Addr, u32)],
    ) -> Result<Staged> {
        store.prime_if_cold(m, |m| self.newest(m))?;
        let mut prefix = [0u8; DELTA_PREFIX];
        prefix[0..4].copy_from_slice(&(MISC as u32).to_le_bytes());
        for (i, w) in m.regs.to_words().iter().enumerate() {
            prefix[4 + 4 * i..8 + 4 * i].copy_from_slice(&w.to_le_bytes());
        }
        prefix[20..24].copy_from_slice(&extra.to_le_bytes());
        let full_bytes = MISC as u32 + image.iter().map(|&(_, len)| len).sum::<u32>();
        if delta_ok && store.can_delta(m, regions, full_bytes) {
            return store.stage_delta(m, &prefix, regions);
        }
        let (bank, seq) = store.next_full(m)?;
        let out = &mut store.scratch;
        out.clear();
        out.extend_from_slice(&prefix[4..]);
        for &(start, len) in image.iter().filter(|&&(_, len)| len > 0) {
            out.extend_from_slice(m.mem.peek_slice(start, len)?);
        }
        let ok = stage_record(m, self.at(bank), seq, out)?;
        Ok(Staged {
            seq,
            bank,
            len: full_bytes,
            ok,
        })
    }

    /// Boot-time selection ([`NvStore::select_bank`]). For a bank to
    /// restore, its payload lands in `store.scratch`: the image starts at
    /// byte 20, after the misc block ([`decode_misc`]). With no bank to
    /// restore the cursor is re-primed cold.
    pub fn select(&self, m: &mut Machine, store: &mut NvStore) -> Result<BankChoice> {
        let choice = store.select_bank(m, |m, which| self.validate(m, which))?;
        if let BankChoice::Bank { which, .. } = choice {
            let at = self.at(which);
            let len = m.mem.peek_u32(at.offset(8))?;
            store.scratch.clear();
            store
                .scratch
                .extend_from_slice(m.mem.peek_slice(at.offset(RECORD_HEADER), len)?);
        } else {
            store.prime_cold(m, self.newest(m)?)?;
        }
        Ok(choice)
    }
}

/// Decodes a misc block: the register file followed by one `u32` — the
/// start of a record bank's payload, of a baseline delta prefix past its
/// length word, and of TICS's bank header and delta prefix (where the
/// word is the atomic depth).
#[must_use]
pub fn decode_misc(misc: &[u8]) -> (Registers, u32) {
    let word = |i: usize| u32::from_le_bytes(misc[4 * i..4 * i + 4].try_into().expect("misc word"));
    (
        Registers::from_words([word(0), word(1), word(2), word(3)]),
        word(4),
    )
}
