//! The randomized index keys table ("code book") and per-domain key
//! management — the latency-hiding core of HyBP (paper §V-C, §V-D).
//!
//! Instead of placing a strong cipher on the prediction critical path (which
//! would add ~8 front-end cycles, Figure 2), HyBP precomputes a table of
//! *index keys* with QARMA whenever keys must change. A branch prediction
//! then only performs one SRAM read (fixed latency, no misses — no timing
//! side channel) and a cheap combination of the retrieved key with the
//! plaintext index.
//!
//! The code book is renewed when (1) a context switch occurs or (2) a
//! dedicated access counter reaches its threshold (§V-D sets it near the
//! 2²⁷-access attack bound). Renewal is *non-stalling*: the pipeline keeps
//! predicting while the SRAM is rewritten; a lookup that lands on a
//! not-yet-rewritten word simply returns the stale key, costing only
//! prediction accuracy, never correctness ([`KeysTable::key_at`]).
//!
//! The model keeps the hardware's eager rewrite: a refresh writes one word
//! per cycle after the cipher pipeline fills, and which generation a read
//! sees depends only on that schedule. The simulator defers the arithmetic:
//! [`KeysTable::begin_refresh`] records what the new generation is computed
//! from, and a word is encrypted when a read first sees it (with the rest
//! of its aligned group of 8 words, in one batch). Every key, counter and
//! refresh time is the eager rewrite's; only words no read reaches are
//! never computed.
//!
//! The same degradation policy covers faults: a corrupted key entry (see
//! [`KeysTable::inject_bit_flip`] and the `bp-faults` crate) or an
//! out-of-range read produces a *wrong key* — a misprediction at worst —
//! and never an abort. Constructors validate their configuration and return
//! [`ConfigError`] instead of panicking.
//!
//! # Examples
//!
//! ```
//! use bp_crypto::keys::{IndexSeed, KeysTable, KeysTableConfig};
//! use bp_crypto::Qarma64;
//! use bp_common::{Asid, Vmid};
//!
//! let cipher = Qarma64::from_seed(1);
//! let mut table = KeysTable::new(KeysTableConfig::paper_default()).expect("paper default");
//! let seed = IndexSeed::derive(Asid::new(3), Vmid::new(0), 0xfeed);
//! table.begin_refresh(&cipher, seed, 0, 0);
//! // The paper's example: 1K entries x 10-bit keys in 40-bit words
//! // refresh in 7 (pipeline fill) + 256 (words) = 263 cycles.
//! assert_eq!(table.refresh_duration(), 263);
//! ```

use crate::TweakableBlockCipher;
use bp_common::{Asid, ConfigError, Cycle, Vmid};
use bp_faults::{FaultInjector, RefreshDisposition};

/// Geometry of the randomized index keys table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeysTableConfig {
    /// Number of logical key entries (e.g. 1K..32K, Table VI).
    pub entries: usize,
    /// Width of each key in bits (the paper's example uses 10).
    pub key_bits: u32,
    /// Width of one physical SRAM word rewritten per cycle during a refresh.
    pub word_bits: u32,
    /// Cipher pipeline fill-up latency before the first word is produced.
    pub pipeline_fill: Cycle,
}

impl KeysTableConfig {
    /// The paper's running example: 1K entries of 10-bit keys organised as
    /// 256 x 40-bit words, 7-cycle cipher fill (§V-C1).
    pub const fn paper_default() -> Self {
        KeysTableConfig {
            entries: 1024,
            key_bits: 10,
            word_bits: 40,
            pipeline_fill: 7,
        }
    }

    /// Same organisation with a different entry count (Table VI sweep).
    pub const fn with_entries(entries: usize) -> Self {
        KeysTableConfig {
            entries,
            ..Self::paper_default()
        }
    }

    /// A fully explicit, validated geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `entries` is zero, `key_bits` is zero or
    /// wider than 64, `word_bits` is wider than 64 (a word is one 64-bit
    /// cipher block), or a word cannot hold at least one key.
    pub fn checked(
        entries: usize,
        key_bits: u32,
        word_bits: u32,
        pipeline_fill: Cycle,
    ) -> Result<Self, ConfigError> {
        let cfg = KeysTableConfig {
            entries,
            key_bits,
            word_bits,
            pipeline_fill,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Number of logical keys per physical word.
    ///
    /// Total function even on unvalidated geometries: a zero key width or a
    /// key wider than a word clamps to one key per word instead of dividing
    /// toward zero (call [`KeysTableConfig::validate`] to reject such
    /// configurations up front).
    pub fn keys_per_word(&self) -> usize {
        ((self.word_bits / self.key_bits.max(1)).max(1)) as usize
    }

    /// Number of physical words backing the table.
    pub fn words(&self) -> usize {
        self.entries.div_ceil(self.keys_per_word())
    }

    /// Storage size of one table in bytes.
    pub fn storage_bytes(&self) -> usize {
        (self.entries * self.key_bits as usize).div_ceil(8)
    }

    /// Checks the geometry for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::zero("keys table entries"));
        }
        if self.key_bits == 0 {
            return Err(ConfigError::zero("keys table key_bits"));
        }
        if self.key_bits > 64 {
            return Err(ConfigError::too_large(
                "keys table key_bits",
                u64::from(self.key_bits),
                64,
            ));
        }
        if self.word_bits > 64 {
            return Err(ConfigError::too_large(
                "keys table word_bits",
                u64::from(self.word_bits),
                64,
            ));
        }
        if self.word_bits < self.key_bits {
            return Err(ConfigError::inconsistent(
                "keys table geometry",
                "a word must hold at least one key (word_bits >= key_bits)",
            ));
        }
        Ok(())
    }
}

impl Default for KeysTableConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The hardware-internal seed for code-book generation (§V-C1).
///
/// Derived from the ASID, the VMID and a value from a hardware random number
/// generator or PUF; never visible to software, including the hypervisor.
// No `Debug`: the seed is key material derived from the hardware RNG/PUF.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexSeed(u64);

impl IndexSeed {
    /// Derives the seed from the architectural identifiers and the hardware
    /// random value. The mixing is a fixed injective-ish packing followed by
    /// a SplitMix finalizer so that adjacent ASIDs do not produce related
    /// seeds.
    pub fn derive(asid: Asid, vmid: Vmid, hardware_rand: u64) -> Self {
        let packed = (u64::from(asid.raw()) << 48) ^ (u64::from(vmid.raw()) << 32) ^ hardware_rand;
        let mut z = packed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        IndexSeed(z ^ (z >> 31))
    }

    /// Raw 64-bit seed value (used as the cipher tweak).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Words one fill computes: a read that reaches an unfilled entry computes
/// the entry's aligned group of this many words in one batch, so the cipher
/// builds its tweak schedule once per group.
const FILL_WORDS: usize = 8;

/// What one code-book generation is computed from: word `w` is
/// `cipher.encrypt(timer_base + w, tweak)`.
struct Generation {
    cipher: Box<dyn TweakableBlockCipher>,
    tweak: u64,
    timer_base: u64,
}

impl Clone for Generation {
    fn clone(&self) -> Self {
        Generation {
            cipher: self.cipher.boxed_copy(),
            tweak: self.tweak,
            timer_base: self.timer_base,
        }
    }
}

/// One buffer of per-entry keys whose entries are computed on first read.
///
/// Within a group of [`FILL_WORDS`] words the filled words are a prefix of
/// the group: a fill completes the group, and the only other writer is a
/// mid-rewrite refresh, which copies a prefix of the table.
// No `Debug`: holds a code book and the cipher that computes it.
#[derive(Clone)]
struct Book {
    keys: Vec<u64>,
    /// Bit `e % 64` of `filled[e / 64]` is set once entry `e` holds its key.
    filled: Vec<u64>,
    /// The generation unfilled entries belong to; `None` for the all-zero
    /// book a table starts with, whose entries are all filled.
    source: Option<Generation>,
}

impl Book {
    /// An all-zero book, every entry filled.
    fn zeroed(entries: usize) -> Self {
        Book {
            keys: vec![0; entries],
            filled: vec![u64::MAX; entries.div_ceil(64)],
            source: None,
        }
    }

    /// Hands the buffer to `generation`, with no entry filled.
    fn restart(&mut self, generation: Generation) {
        self.filled.fill(0);
        self.source = Some(generation);
    }

    #[inline]
    fn is_filled(&self, entry: usize) -> bool {
        self.filled
            .get(entry / 64)
            .is_some_and(|bits| bits >> (entry % 64) & 1 != 0)
    }

    fn mark_filled(&mut self, entries: std::ops::Range<usize>) {
        for e in entries {
            if let Some(bits) = self.filled.get_mut(e / 64) {
                *bits |= 1 << (e % 64);
            }
        }
    }

    /// `entry`'s key slot, filled first if no read has reached it.
    #[inline]
    fn slot(&mut self, entry: usize, config: &KeysTableConfig) -> Option<&mut u64> {
        if !self.is_filled(entry) {
            self.fill_group(entry, config);
        }
        self.keys.get_mut(entry)
    }

    /// Computes the unfilled words of the aligned group holding `entry`
    /// with one batch call, and splits each into its keys.
    #[cold]
    #[inline(never)]
    fn fill_group(&mut self, entry: usize, config: &KeysTableConfig) {
        let Some(generation) = &self.source else {
            return;
        };
        let per_word = config.keys_per_word();
        let word = entry / per_word;
        let group = word - word % FILL_WORDS;
        let end = (group + FILL_WORDS).min(config.words());
        let Some(start) = (group..end).find(|&w| !self.is_filled(w * per_word)) else {
            return;
        };
        let mut words = [0u64; FILL_WORDS];
        let words = &mut words[..end - start];
        for (i, w) in words.iter_mut().enumerate() {
            *w = generation.timer_base.wrapping_add((start + i) as u64);
        }
        generation.cipher.encrypt_batch(words, generation.tweak);
        let key_bits = config.key_bits;
        let key_mask = u64::MAX >> (64 - key_bits);
        let filled = start * per_word..(end * per_word).min(config.entries);
        for (keys, &block) in self.keys[filled.clone()].chunks_mut(per_word).zip(&*words) {
            for (slot, key) in keys.iter_mut().enumerate() {
                *key = (block >> (slot as u32 * key_bits)) & key_mask;
            }
        }
        self.mark_filled(filled);
    }

    /// Fills every group that holds one of the first `entries` entries.
    fn fill_prefix(&mut self, entries: usize, config: &KeysTableConfig) {
        for entry in (0..entries).step_by(FILL_WORDS * config.keys_per_word()) {
            self.fill_group(entry, config);
        }
    }

    /// Every entry's key, filled or not.
    fn contents(&self, config: &KeysTableConfig) -> Vec<u64> {
        let mut book = self.clone();
        book.fill_prefix(config.entries, config);
        book.keys
    }
}

/// State of an in-flight, non-stalling code-book refresh.
// No `Debug`: `old` is the previous-generation code book.
#[derive(Clone)]
struct RefreshState {
    started_at: Cycle,
    /// Every entry's key as reads saw it when the refresh started; an entry
    /// the rewrite has not reached yet reads from here.
    old: Book,
}

/// The randomized index keys table.
///
/// See the [module documentation](self) for the role this table plays.
///
/// `==` compares what reads would return: two tables are equal when they
/// have the same geometry, counters and refresh start, and every entry of
/// both code books holds, or would be filled with, the same key.
// No `Debug`/`Display`: `book` is the live code book; printing it hands an
// attacker the randomization secret.
#[derive(Clone)]
pub struct KeysTable {
    config: KeysTableConfig,
    /// `config.keys_per_word()`, computed once.
    keys_per_word: usize,
    book: Book,
    refresh: Option<RefreshState>,
    accesses_since_refresh: u64,
    generation: u64,
    stale_hits: u64,
    anomalous_reads: u64,
}

impl PartialEq for KeysTable {
    fn eq(&self, other: &Self) -> bool {
        let config = &self.config;
        let counters = |t: &Self| {
            (
                t.accesses_since_refresh,
                t.generation,
                t.stale_hits,
                t.anomalous_reads,
            )
        };
        *config == other.config
            && counters(self) == counters(other)
            && self.book.contents(config) == other.book.contents(config)
            && match (&self.refresh, &other.refresh) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    a.started_at == b.started_at && a.old.contents(config) == b.old.contents(config)
                }
                _ => false,
            }
    }
}

impl Eq for KeysTable {}

impl KeysTable {
    /// Creates an all-zero-key table with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent (zero
    /// entries, key wider than a word, ...).
    pub fn new(config: KeysTableConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(KeysTable {
            keys_per_word: config.keys_per_word(),
            book: Book::zeroed(config.entries),
            config,
            refresh: None,
            accesses_since_refresh: 0,
            generation: 0,
            stale_hits: 0,
            anomalous_reads: 0,
        })
    }

    /// The table geometry.
    pub fn config(&self) -> &KeysTableConfig {
        &self.config
    }

    /// Cycles from refresh start until the last word is rewritten:
    /// pipeline fill + one word per cycle (§V-C1).
    pub fn refresh_duration(&self) -> Cycle {
        self.config.pipeline_fill + self.config.words() as Cycle
    }

    /// How many entries, counted from entry 0, the rewrite started at
    /// `started_at` has reached by cycle `now`: word `w` (entries
    /// `w * keys_per_word..`) lands at `started_at + pipeline_fill + w + 1`.
    #[inline]
    fn fresh_entries(&self, started_at: Cycle, now: Cycle) -> usize {
        let words = now.saturating_sub(started_at + self.config.pipeline_fill);
        words
            .saturating_mul(self.keys_per_word as u64)
            .min(self.config.entries as u64) as usize
    }

    /// Starts a non-stalling refresh at cycle `now`, filling the table with
    /// ciphertext of a timer-readout sequence under `seed` (§V-C1): word
    /// `w` is `cipher.encrypt(timer_base + w, seed)`.
    ///
    /// The old key material remains visible for words the rewrite has not
    /// reached yet; see [`KeysTable::key_at`]. A refresh may overlap an
    /// in-flight one (e.g. a context switch during the rewrite): the
    /// snapshot preserved as "old" keys is then the architecturally visible
    /// mix of the two earlier generations at `now`, not either generation
    /// wholesale.
    ///
    /// The modelled hardware rewrites every word, one per cycle; the
    /// simulator encrypts none here. It keeps a copy of `cipher` with the
    /// seed and timer base, and a read that first reaches a word computes
    /// it, with the rest of its aligned group of 8 words in one
    /// [`encrypt_batch`](TweakableBlockCipher::encrypt_batch) call. Keys,
    /// counters and timing are those of the eager rewrite.
    ///
    /// The snapshot is taken word-wise: the current code book is handed
    /// over whole when no rewrite is in flight at `now`, and otherwise only
    /// the entries the in-flight rewrite has reached are copied into it
    /// (computed first, if no read has reached them).
    pub fn begin_refresh(
        &mut self,
        cipher: &dyn TweakableBlockCipher,
        seed: IndexSeed,
        timer_base: u64,
        now: Cycle,
    ) {
        let entries = self.config.entries;
        let fresh = self
            .refresh
            .as_ref()
            .map_or(entries, |r| self.fresh_entries(r.started_at, now));
        match &mut self.refresh {
            // Mid-rewrite: reads see the new keys below `fresh` and the
            // old ones from there on.
            Some(r) if fresh < entries => {
                self.book.fill_prefix(fresh, &self.config);
                r.old.keys[..fresh].copy_from_slice(&self.book.keys[..fresh]);
                r.old.mark_filled(0..fresh);
                r.started_at = now;
            }
            // Rewrite complete: the current keys become the old generation,
            // and the unreachable old buffer takes the new one.
            Some(r) => {
                std::mem::swap(&mut r.old, &mut self.book);
                r.started_at = now;
            }
            None => {
                let old = std::mem::replace(&mut self.book, Book::zeroed(entries));
                self.refresh = Some(RefreshState {
                    started_at: now,
                    old,
                });
            }
        }
        self.book.restart(Generation {
            cipher: cipher.boxed_copy(),
            tweak: seed.raw(),
            timer_base,
        });
        self.accesses_since_refresh = 0;
        self.generation += 1;
    }

    /// Reads the key for `entry` at cycle `now`, modelling the non-stalling
    /// refresh: if the word holding `entry` has not been rewritten yet, the
    /// *previous generation's* key is returned (and counted as a stale hit).
    ///
    /// Also counts the access toward the renewal threshold.
    ///
    /// An out-of-range `entry` (a faulted index, or a caller bug) is folded
    /// back into the table and counted in
    /// [`KeysTable::anomalous_reads`] — a wrong key costs a misprediction,
    /// never an abort.
    #[inline]
    pub fn key_at(&mut self, entry: usize, now: Cycle) -> u64 {
        self.key_at_n(entry, now, 1)
    }

    /// `n` reads of `entry` in the same cycle, counted in one step: returns
    /// the key, and leaves every counter and the refresh state exactly as
    /// `n` calls of [`KeysTable::key_at`] would. All `n` reads see the same
    /// word state, so all are stale or none is.
    #[inline]
    pub fn key_at_n(&mut self, entry: usize, now: Cycle, n: u64) -> u64 {
        let entry = if entry < self.config.entries {
            entry
        } else {
            self.anomalous_reads += n;
            entry % self.config.entries
        };
        self.accesses_since_refresh += n;
        let mut stale = false;
        if let Some(started_at) = self.refresh.as_ref().map(|r| r.started_at) {
            let fresh = self.fresh_entries(started_at, now);
            stale = entry >= fresh;
            if stale {
                self.stale_hits += n;
            } else if fresh == self.config.entries {
                // Drop the old generation once the whole table is rewritten.
                self.refresh = None;
            }
        }
        let book = match &mut self.refresh {
            Some(r) if stale => &mut r.old,
            _ => &mut self.book,
        };
        book.slot(entry, &self.config).map_or(0, |k| *k)
    }

    /// Flips one bit of the *stored* (current-generation) key of `entry`,
    /// modelling persistent SRAM corruption. `entry` and `bit` are folded
    /// into range. The corruption behaves exactly like a stale key: wrong
    /// prediction, correct execution.
    ///
    /// An entry no read has reached is computed first, so the flip lands
    /// on the key the eager rewrite stored.
    pub fn inject_bit_flip(&mut self, entry: usize, bit: u32) {
        let entry = entry % self.config.entries.max(1);
        let bit = bit % self.config.key_bits.max(1);
        if let Some(k) = self.book.slot(entry, &self.config) {
            *k ^= 1u64 << bit;
        }
    }

    /// Forces the access counter to at least `count` (counter-saturation
    /// fault; the next threshold check then triggers a renewal).
    pub fn force_access_count(&mut self, count: u64) {
        self.accesses_since_refresh = self.accesses_since_refresh.max(count);
    }

    /// Whether the access counter has reached `threshold` and a renewal
    /// request should be sent (§VI-C).
    #[inline]
    pub fn needs_refresh(&self, threshold: u64) -> bool {
        self.accesses_since_refresh >= threshold
    }

    /// Number of accesses since the last refresh (the dedicated counter).
    pub fn accesses_since_refresh(&self) -> u64 {
        self.accesses_since_refresh
    }

    /// How many lookups returned a stale (old-generation) key, across the
    /// table's lifetime. Evaluated in Table VI.
    pub fn stale_hits(&self) -> u64 {
        self.stale_hits
    }

    /// How many reads arrived with an out-of-range entry and were folded
    /// back into the table (fault accounting).
    pub fn anomalous_reads(&self) -> u64 {
        self.anomalous_reads
    }

    /// Monotonic refresh generation (0 = never refreshed).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether a refresh is still in flight at cycle `now`.
    pub fn refresh_in_flight(&self, now: Cycle) -> bool {
        self.refresh
            .as_ref()
            .is_some_and(|r| now < r.started_at + self.refresh_duration())
    }
}

/// Per-`(hardware thread, privilege)` key state: the content key registers
/// and the isolated keys table.
// No `Debug`: holds the content key and the keys table.
#[derive(Clone, PartialEq, Eq)]
pub struct DomainKeys {
    content_key: u64,
    table: KeysTable,
}

impl DomainKeys {
    /// Creates zeroed key state.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the table geometry is inconsistent.
    pub fn new(config: KeysTableConfig) -> Result<Self, ConfigError> {
        Ok(DomainKeys {
            content_key: 0,
            table: KeysTable::new(config)?,
        })
    }

    /// The current content key (XOR-ed into stored table contents).
    pub fn content_key(&self) -> u64 {
        self.content_key
    }

    /// Shared access to the keys table.
    pub fn table(&self) -> &KeysTable {
        &self.table
    }

    /// Mutable access to the keys table.
    pub fn table_mut(&mut self) -> &mut KeysTable {
        &mut self.table
    }
}

/// Key manager for all isolation slots of a core (§V-D).
///
/// Owns one [`DomainKeys`] per `(hardware thread, privilege)` slot, the
/// modeled hardware timer and random source, and implements the paper's key
/// change policy: renew a slot's keys on context switch and whenever the
/// access counter reaches the threshold.
///
/// Content-key update is a 1-cycle register write and takes effect
/// immediately; the keys-table rewrite proceeds in the background
/// (two-step refresh, §V-C2).
///
/// An optional [`FaultInjector`] disturbs key reads (persistent bit flips),
/// counter checks (saturation) and refresh requests (delay/drop); see the
/// `bp-faults` crate. Disturbances never change the *reported* refresh
/// timing — [`KeyManager::renew`] always returns the nominal completion
/// cycle, so no fault opens a timing channel.
// No `Debug`: owns every isolation slot's key state.
pub struct KeyManager {
    cipher: Box<dyn TweakableBlockCipher>,
    slots: Vec<DomainKeys>,
    /// Models the hardware DRNG/PUF feeding the index seed.
    rand_source: bp_common::rng::SplitMix64,
    /// Models the free-running timer register read during code-book fill.
    timer: u64,
    /// Access-counter threshold for forced renewal (paper: ≈ 2²⁷).
    threshold: u64,
    faults: Option<FaultInjector>,
    telemetry: bp_common::Telemetry,
    /// Renewals whose table rewrite was dropped (keys left stale).
    refresh_stalls: u64,
    /// Renewals whose table rewrite silently started late.
    refresh_delays: u64,
}

/// The paper's renewal threshold: the shortest analyzed attack needs ≈ 2²⁷
/// BPU accesses (§VI-C).
pub const PAPER_RENEWAL_THRESHOLD: u64 = 1 << 27;

impl KeyManager {
    /// Creates a manager with `slot_count` isolation slots.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `slot_count` or `threshold` is zero, or
    /// the table geometry is inconsistent.
    pub fn new(
        cipher: Box<dyn TweakableBlockCipher>,
        slot_count: usize,
        config: KeysTableConfig,
        threshold: u64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if slot_count == 0 {
            return Err(ConfigError::zero("isolation slot count"));
        }
        if threshold == 0 {
            // A zero threshold would demand a renewal on every access.
            return Err(ConfigError::zero("renewal threshold"));
        }
        config.validate()?;
        let slots = (0..slot_count)
            .map(|_| DomainKeys::new(config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KeyManager {
            cipher,
            slots,
            rand_source: bp_common::rng::SplitMix64::new(seed),
            timer: 0x1000,
            threshold,
            faults: None,
            telemetry: bp_common::Telemetry::disabled(),
            refresh_stalls: 0,
            refresh_delays: 0,
        })
    }

    /// Installs (or removes) the fault injector consulted on key reads,
    /// counter checks and refresh requests.
    pub fn set_fault_injector(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// Installs the telemetry sink every renewal reports its refresh span
    /// to. The span always covers the *nominal* rewrite window — like the
    /// return value of [`KeyManager::renew`], it is fault-independent, so
    /// the exported event stream cannot leak fault state through timing.
    pub fn set_telemetry(&mut self, telemetry: bp_common::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of isolation slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The renewal threshold in accesses.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Folds an out-of-range slot id into range (counted per-table as an
    /// anomalous read when it reaches one).
    #[inline]
    fn clamp_slot(&self, slot: usize) -> usize {
        if slot < self.slots.len() {
            slot
        } else {
            slot % self.slots.len().max(1)
        }
    }

    /// Renews all keys of `slot` (content key immediately, keys table in the
    /// background), as on a context switch. Returns the cycle at which the
    /// table rewrite nominally completes.
    ///
    /// The return value is the *acknowledged* completion time and does not
    /// change when a fault delays or drops the actual rewrite: faults must
    /// not modulate observable timing.
    pub fn renew(&mut self, slot: usize, asid: Asid, vmid: Vmid, now: Cycle) -> Cycle {
        let slot = self.clamp_slot(slot);
        let nominal_done = now + self.slots[slot].table().refresh_duration();
        // Emitted before any fault disposition is consulted: the exported
        // span must match the acknowledged (nominal) timing in every case.
        self.telemetry
            .span(now, "keys", "refresh", now, nominal_done, slot as u64);
        let disposition = match &self.faults {
            Some(f) => f.on_refresh(slot, now),
            None => RefreshDisposition::Proceed,
        };
        if disposition == RefreshDisposition::Drop {
            // The renewal request is lost: keys stay stale, the counter
            // keeps running, and the next trigger will retry. The stall is
            // counted so a serving layer can surface degraded mode — the
            // counter is observation-only and never feeds back into timing.
            self.refresh_stalls += 1;
            return nominal_done;
        }
        if matches!(disposition, RefreshDisposition::Delay(_)) {
            self.refresh_delays += 1;
        }
        let rand = self.rand_source.next_u64();
        let seed = IndexSeed::derive(asid, vmid, rand);
        // Step 1 (1 cycle): content key registers.
        self.slots[slot].content_key = self.cipher.encrypt(self.timer, seed.raw() ^ 0xC0DE);
        // Step 2 (hundreds of cycles, non-stalling): SRAM rewrite, possibly
        // silently starting late under a delay fault.
        let start = match disposition {
            RefreshDisposition::Delay(d) => now + d,
            _ => now,
        };
        let timer_base = self.timer;
        self.timer = self.timer.wrapping_add(0x10_0000);
        let table = self.slots[slot].table_mut();
        table.begin_refresh(self.cipher.as_ref(), seed, timer_base, start);
        nominal_done
    }

    /// Looks up the index key for a branch in `slot`; the table is indexed by
    /// a slice of the branch PC (§V-C). Counts the access and, if the counter
    /// crossed the threshold, renews the slot's keys automatically and
    /// reports it.
    ///
    /// Returns `(key, renewed)`.
    #[inline]
    pub fn index_key(
        &mut self,
        slot: usize,
        pc_slice: u64,
        asid: Asid,
        vmid: Vmid,
        now: Cycle,
    ) -> (u64, bool) {
        let slot = self.clamp_slot(slot);
        let entry = self.entry(slot, pc_slice);
        // Borrow rather than clone: `faults` and `slots` are disjoint fields,
        // and this runs once per key read that cannot take
        // `index_key_n`'s one-step path.
        if let Some(f) = &self.faults {
            let key_bits = self.slots[slot].table().config().key_bits;
            if let Some(bit) = f.on_key_read(slot, entry, key_bits, now) {
                self.slots[slot].table_mut().inject_bit_flip(entry, bit);
            }
            if f.saturate_counter(slot, now) {
                let threshold = self.threshold;
                self.slots[slot].table_mut().force_access_count(threshold);
            }
        }
        let key = self.slots[slot].table_mut().key_at(entry, now);
        if self.slots[slot].table().needs_refresh(self.threshold) {
            self.renew(slot, asid, vmid, now);
            return (key, true);
        }
        (key, false)
    }

    /// `n` reads of the index key [`KeyManager::index_key`] would return,
    /// counted in one step — or `None`, with nothing read or counted, when
    /// the reads must go one at a time: when a fault injector is attached
    /// (it acts on every read), or when the `n` reads would reach the
    /// renewal threshold (a renewal would land mid-way).
    #[inline]
    pub fn index_key_n(&mut self, slot: usize, pc_slice: u64, n: u64, now: Cycle) -> Option<u64> {
        let slot = self.clamp_slot(slot);
        let table = self.slots[slot].table();
        if self.faults.is_some() || table.accesses_since_refresh() + n >= self.threshold {
            return None;
        }
        let entry = self.entry(slot, pc_slice);
        Some(self.slots[slot].table_mut().key_at_n(entry, now, n))
    }

    /// The keys-table entry a PC slice selects in `slot`.
    #[inline]
    fn entry(&self, slot: usize, pc_slice: u64) -> usize {
        let entries = self.slots[slot].table().config().entries;
        bp_common::fast_mod_usize(pc_slice as usize, entries)
    }

    /// The content key currently active for `slot`.
    #[inline]
    pub fn content_key(&self, slot: usize) -> u64 {
        self.slots[self.clamp_slot(slot)].content_key()
    }

    /// Read-only access to a slot's key state.
    pub fn slot(&self, slot: usize) -> &DomainKeys {
        &self.slots[self.clamp_slot(slot)]
    }

    /// Renewals whose table rewrite was dropped by a fault: the slot kept
    /// serving its stale keys (§V-C2 — stale keys cost accuracy, never
    /// correctness). Monotone over the manager's lifetime.
    pub fn refresh_stalls(&self) -> u64 {
        self.refresh_stalls
    }

    /// Renewals whose table rewrite was delayed by a fault (started late
    /// but did complete). Monotone over the manager's lifetime.
    pub fn refresh_delays(&self) -> u64 {
        self.refresh_delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qarma64;
    use bp_faults::{FaultPlan, FaultStats};

    fn cipher() -> Qarma64 {
        Qarma64::from_seed(0xA5A5)
    }

    fn table(config: KeysTableConfig) -> KeysTable {
        KeysTable::new(config).expect("valid test geometry")
    }

    fn manager(
        slot_count: usize,
        config: KeysTableConfig,
        threshold: u64,
        seed: u64,
    ) -> KeyManager {
        KeyManager::new(Box::new(cipher()), slot_count, config, threshold, seed)
            .expect("valid test configuration")
    }

    #[test]
    fn paper_geometry_263_cycles() {
        let t = table(KeysTableConfig::paper_default());
        assert_eq!(t.config().keys_per_word(), 4);
        assert_eq!(t.config().words(), 256);
        assert_eq!(t.refresh_duration(), 263);
        assert_eq!(t.config().storage_bytes(), 1280); // 1.25 KB per table
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert_eq!(
            KeysTable::new(KeysTableConfig::with_entries(0)).err(),
            Some(ConfigError::zero("keys table entries"))
        );
        assert!(KeysTableConfig::checked(16, 0, 40, 7).is_err());
        assert!(KeysTableConfig::checked(16, 65, 80, 7).is_err());
        // The silently-divides-toward-zero hazard: key wider than a word.
        assert_eq!(
            KeysTableConfig::checked(16, 48, 40, 7).err(),
            Some(ConfigError::inconsistent(
                "keys table geometry",
                "a word must hold at least one key (word_bits >= key_bits)",
            ))
        );
        // A word is one 64-bit cipher block, split with `u64` shifts: a
        // 128-bit word of 40-bit keys would shift by 80 for its third key.
        assert_eq!(
            KeysTableConfig::checked(16, 40, 128, 7).err(),
            Some(ConfigError::too_large("keys table word_bits", 128, 64))
        );
        assert!(KeysTableConfig::checked(1024, 10, 40, 7).is_ok());
        assert!(KeysTableConfig::checked(1024, 10, 64, 7).is_ok());
    }

    #[test]
    fn keys_per_word_is_total_even_unvalidated() {
        // An unvalidated struct literal must not divide toward zero (or by
        // zero) in derived quantities.
        let bad = KeysTableConfig {
            entries: 16,
            key_bits: 48,
            word_bits: 40,
            pipeline_fill: 7,
        };
        assert_eq!(bad.keys_per_word(), 1);
        assert_eq!(bad.words(), 16);
        let zero = KeysTableConfig { key_bits: 0, ..bad };
        assert!(zero.keys_per_word() >= 1);
    }

    #[test]
    fn keys_fit_width() {
        let mut t = table(KeysTableConfig::paper_default());
        let seed = IndexSeed::derive(Asid::new(1), Vmid::new(0), 42);
        t.begin_refresh(&cipher(), seed, 0, 0);
        for i in 0..1024 {
            assert!(t.key_at(i, 10_000) < (1 << 10));
        }
    }

    #[test]
    fn refresh_changes_keys() {
        let mut t = table(KeysTableConfig::paper_default());
        let c = cipher();
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 1), 0, 0);
        let before: Vec<u64> = (0..1024).map(|i| t.key_at(i, 10_000)).collect();
        t.begin_refresh(
            &c,
            IndexSeed::derive(Asid::new(1), Vmid::new(0), 2),
            4096,
            20_000,
        );
        let after: Vec<u64> = (0..1024).map(|i| t.key_at(i, 40_000)).collect();
        let differing = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(differing > 900, "only {differing} of 1024 keys changed");
    }

    #[test]
    fn non_stalling_refresh_serves_stale_keys() {
        let mut t = table(KeysTableConfig::paper_default());
        let c = cipher();
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 1), 0, 0);
        // Let the first refresh complete, remember a late entry's key.
        let old_last = t.key_at(1023, 100_000);
        // Start a second refresh at cycle 200_000.
        t.begin_refresh(
            &c,
            IndexSeed::derive(Asid::new(1), Vmid::new(0), 2),
            999,
            200_000,
        );
        // Entry 1023 lives in the last word, rewritten at 200_000 + 7 + 256.
        assert_eq!(t.key_at(1023, 200_001), old_last, "stale key expected");
        assert!(t.refresh_in_flight(200_001));
        assert!(!t.refresh_in_flight(201_000));
        // Entry 0 is rewritten right after the pipeline fill.
        let _ = t.key_at(0, 200_000 + 8);
        assert!(t.stale_hits() >= 1);
        // After completion the keys are the new generation's: with 8 entries
        // of 10-bit keys compared, an accidental full match is ~2^-80.
        let old_tail: Vec<u64> = (1016..1024).map(|i| t.key_at(i, 199_999)).collect();
        let new_tail: Vec<u64> = (1016..1024).map(|i| t.key_at(i, 200_000 + 263)).collect();
        assert_ne!(new_tail, old_tail, "keys should change across refresh");
    }

    #[test]
    fn early_words_rewrite_before_late_words() {
        let mut t = table(KeysTableConfig::paper_default());
        let c = cipher();
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(7), Vmid::new(0), 3), 0, 0);
        let now = 7 + 1; // first word rewritten, rest stale
        let stale_before = t.stale_hits();
        let _ = t.key_at(0, now);
        assert_eq!(t.stale_hits(), stale_before, "entry 0 must be fresh");
        let _ = t.key_at(1023, now);
        assert_eq!(t.stale_hits(), stale_before + 1, "entry 1023 must be stale");
    }

    /// Satellite coverage: at *every* cycle of the 263-cycle paper-default
    /// refresh, every entry must read as its old key while its word has not
    /// been rewritten and as its new key afterwards.
    #[test]
    fn mid_refresh_reads_old_key_until_word_rewritten_every_cycle() {
        let cfg = KeysTableConfig::paper_default();
        let mut t = table(cfg);
        let c = cipher();
        // Generation 1, fully rewritten by cycle 100_000.
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 1), 0, 0);
        let old: Vec<u64> = (0..cfg.entries).map(|i| t.key_at(i, 100_000)).collect();
        // Generation 2 starts at `start`.
        let start: Cycle = 200_000;
        t.begin_refresh(
            &c,
            IndexSeed::derive(Asid::new(1), Vmid::new(0), 2),
            777,
            start,
        );
        // Capture the new generation's values from a clone (reading the
        // original would interleave with the sweep below).
        let mut done = t.clone();
        let new: Vec<u64> = (0..cfg.entries)
            .map(|i| done.key_at(i, start + t.refresh_duration()))
            .collect();
        assert_ne!(old, new);
        let per_word = cfg.keys_per_word();
        for offset in 0..=t.refresh_duration() {
            let now = start + offset;
            for entry in (0..cfg.entries).step_by(7) {
                let word_idx = (entry / per_word) as Cycle;
                let rewritten_at = cfg.pipeline_fill + word_idx + 1;
                let expect = if offset < rewritten_at {
                    old[entry]
                } else {
                    new[entry]
                };
                assert_eq!(
                    t.key_at(entry, now),
                    expect,
                    "entry {entry} at offset {offset} (word rewritten at {rewritten_at})"
                );
            }
        }
        // After the sweep the refresh has completed and been retired.
        assert!(!t.refresh_in_flight(start + t.refresh_duration()));
    }

    /// Satellite coverage: a second `begin_refresh` issued mid-refresh must
    /// snapshot the architecturally *visible* keys (a mix of the two prior
    /// generations), not either generation wholesale.
    #[test]
    fn overlapping_refresh_snapshots_visible_mix() {
        let cfg = KeysTableConfig::paper_default();
        let mut t = table(cfg);
        let c = cipher();
        // Generation 1 (complete): values A.
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 1), 0, 0);
        let a: Vec<u64> = (0..cfg.entries).map(|i| t.key_at(i, 100_000)).collect();
        // Generation 2 starts at `g2`; values B once complete.
        let g2: Cycle = 200_000;
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 2), 55, g2);
        let mut b_probe = t.clone();
        let b: Vec<u64> = (0..cfg.entries)
            .map(|i| b_probe.key_at(i, g2 + t.refresh_duration()))
            .collect();
        // Generation 3 starts 100 cycles in: words 0..93 hold B, the rest A.
        let g3 = g2 + 100;
        t.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 3), 99, g3);
        let per_word = cfg.keys_per_word();
        // One cycle after g3 nothing of generation 3 is visible yet, so every
        // entry must still read as the pre-g3 visible mix.
        for entry in 0..cfg.entries {
            let word_idx = (entry / per_word) as Cycle;
            let rewritten_by_g2 = g2 + cfg.pipeline_fill + word_idx < g3;
            let expect = if rewritten_by_g2 { b[entry] } else { a[entry] };
            assert_eq!(
                t.key_at(entry, g3 + 1),
                expect,
                "entry {entry}: old generation must be the visible mix \
                 (g2 rewrote it: {rewritten_by_g2})"
            );
        }
        // Both phases of the mix must actually occur in this geometry.
        assert!(
            (0..cfg.entries).any(|e| (e / per_word) as Cycle + cfg.pipeline_fill + 1 + g2 <= g3)
        );
        assert!((0..cfg.entries).any(|e| (e / per_word) as Cycle + cfg.pipeline_fill + 1 + g2 > g3));
    }

    /// One `n`-read leaves the table exactly as `n` single reads do: before
    /// any refresh, on a stale word and on a rewritten word mid-refresh,
    /// and on the read that retires the refresh. Whole tables compare with
    /// `==`, which must tell apart tables whose reads would differ.
    #[test]
    fn batched_reads_match_single_reads() {
        let cfg = KeysTableConfig::paper_default();
        let c = cipher();
        let fresh = table(cfg);
        let mut refreshed = table(cfg);
        refreshed.begin_refresh(&c, IndexSeed::derive(Asid::new(1), Vmid::new(0), 1), 0, 0);
        let start: Cycle = 10_000;
        refreshed.begin_refresh(
            &c,
            IndexSeed::derive(Asid::new(1), Vmid::new(0), 2),
            77,
            start,
        );
        let last_word_at = start + refreshed.refresh_duration() - 1;
        let cases = [
            ("before any refresh", &fresh, 5, 0),
            ("stale word", &refreshed, 1023, start + 8),
            ("rewritten word", &refreshed, 0, start + 8),
            (
                "retiring read",
                &refreshed,
                1023,
                start + refreshed.refresh_duration(),
            ),
        ];
        for (case, base, entry, now) in cases {
            for n in [1, 2, 30] {
                let (mut single, mut batched) = (base.clone(), base.clone());
                let mut key = 0;
                for _ in 0..n {
                    key = single.key_at(entry, now);
                }
                assert_eq!(batched.key_at_n(entry, now, n), key, "{case}, n = {n}");
                assert_eq!(
                    (batched.accesses_since_refresh(), batched.stale_hits()),
                    (single.accesses_since_refresh(), single.stale_hits()),
                    "{case}, n = {n}"
                );
                assert_eq!(batched.generation(), single.generation(), "{case}");
                // Also the refresh state: retired alike, or still in flight.
                assert!(batched == single, "{case}, n = {n}: whole table state");
            }
        }
        // The cases reach both sides of each branch they name.
        let mut stale = refreshed.clone();
        let _ = stale.key_at(1023, start + 8);
        assert_eq!(stale.stale_hits(), refreshed.stale_hits() + 1);
        let mut retired = refreshed.clone();
        let _ = retired.key_at(1023, start + refreshed.refresh_duration());
        assert!(retired != refreshed && !retired.refresh_in_flight(last_word_at));
        // `==` compares keys whether filled or not: ciphers under different
        // keys make two tables unequal before any read, and filling a group
        // (two flips of one bit) leaves a table equal to its unfilled clone.
        let seed = IndexSeed::derive(Asid::new(1), Vmid::new(0), 3);
        let (mut a, mut b) = (table(cfg), table(cfg));
        a.begin_refresh(&c, seed, 5, 0);
        b.begin_refresh(&Qarma64::from_seed(0x5A5A), seed, 5, 0);
        assert!(a != b, "different cipher keys, nothing read");
        let mut filled = a.clone();
        filled.inject_bit_flip(9, 2);
        filled.inject_bit_flip(9, 2);
        assert!(filled == a && filled.book.is_filled(9) && !a.book.is_filled(9));
    }

    /// The batched manager read declines exactly when a renewal could fire
    /// inside the `n` reads or a fault injector is attached (even one that
    /// never fires), and then reads and counts nothing.
    #[test]
    fn batched_manager_read_declines_only_near_the_threshold_or_under_faults() {
        let threshold = 100;
        let mut km = manager(1, KeysTableConfig::paper_default(), threshold, 43);
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let mut single = manager(1, KeysTableConfig::paper_default(), threshold, 43);
        single.renew(0, Asid::new(3), Vmid::new(1), 0);
        let accesses = |km: &KeyManager| km.slot(0).table().accesses_since_refresh();
        // 40 + 30 reads stay below 100; the next 30 would reach it.
        for (n, total) in [(40, 40), (30, 70)] {
            let key = km
                .index_key_n(0, 0x55, n, 5_000)
                .expect("below the threshold");
            let mut single_key = 0;
            for _ in 0..n {
                let (k, renewed) = single.index_key(0, 0x55, Asid::new(3), Vmid::new(1), 5_000);
                assert!(!renewed);
                single_key = k;
            }
            assert_eq!(key, single_key);
            assert_eq!(accesses(&km), total);
        }
        assert_eq!(km.index_key_n(0, 0x55, 30, 5_000), None, "70 + 30 >= 100");
        assert_eq!(
            km.index_key_n(0, 0x55, 29, 5_000).map(|_| accesses(&km)),
            Some(99)
        );
        assert_eq!(km.index_key_n(0, 0x55, 1, 5_000), None, "99 + 1 >= 100");
        assert_eq!(accesses(&km), 99, "a declined read counts nothing");

        let mut faulted = manager(1, KeysTableConfig::paper_default(), threshold, 43);
        faulted.set_fault_injector(Some(FaultInjector::from_plan(FaultPlan::new(0))));
        assert_eq!(faulted.index_key_n(0, 0x55, 1, 5_000), None, "empty plan");
        assert_eq!(faulted.slot(0).table().accesses_since_refresh(), 0);
        faulted.set_fault_injector(None);
        assert!(faulted.index_key_n(0, 0x55, 1, 5_000).is_some());
    }

    /// The per-entry refresh model: a refresh snapshots every entry's
    /// visible key, a read finds its entry's word by division, and the
    /// code book is encrypted block by block, every word at the refresh,
    /// into a word buffer of its own.
    struct SnapshotModel {
        config: KeysTableConfig,
        keys: Vec<u64>,
        /// `(started_at, old_keys)` of the refresh in flight.
        refresh: Option<(Cycle, Vec<u64>)>,
        generation: u64,
        stale_hits: u64,
    }

    impl SnapshotModel {
        fn new(config: KeysTableConfig) -> Self {
            SnapshotModel {
                config,
                keys: vec![0; config.entries],
                refresh: None,
                generation: 0,
                stale_hits: 0,
            }
        }

        fn duration(&self) -> Cycle {
            self.config.pipeline_fill + self.config.words() as Cycle
        }

        /// Whether `entry`'s word is still unwritten at `now`.
        fn stale(&self, entry: usize, now: Cycle) -> bool {
            self.refresh.as_ref().is_some_and(|(started_at, _)| {
                let word_idx = (entry / self.config.keys_per_word()) as Cycle;
                now < started_at + self.config.pipeline_fill + word_idx + 1
            })
        }

        fn visible_key(&self, entry: usize, now: Cycle) -> u64 {
            match &self.refresh {
                Some((_, old)) if self.stale(entry, now) => old[entry],
                _ => self.keys[entry],
            }
        }

        fn begin_refresh(
            &mut self,
            cipher: &dyn TweakableBlockCipher,
            seed: IndexSeed,
            timer_base: u64,
            now: Cycle,
        ) {
            let old: Vec<u64> = (0..self.config.entries)
                .map(|e| self.visible_key(e, now))
                .collect();
            let (per_word, bits) = (self.config.keys_per_word(), self.config.key_bits);
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            let words: Vec<u64> = (0..self.config.words() as u64)
                .map(|w| cipher.encrypt(timer_base.wrapping_add(w), seed.raw()))
                .collect();
            self.keys = (0..self.config.entries)
                .map(|e| (words[e / per_word] >> ((e % per_word) as u32 * bits)) & mask)
                .collect();
            self.refresh = Some((now, old));
            self.generation += 1;
        }

        fn key_at(&mut self, entry: usize, now: Cycle) -> u64 {
            if self.stale(entry, now) {
                self.stale_hits += 1;
            } else if self
                .refresh
                .as_ref()
                .is_some_and(|(started_at, _)| now >= started_at + self.duration())
            {
                self.refresh = None;
            }
            self.visible_key(entry, now)
        }

        fn inject_bit_flip(&mut self, entry: usize, bit: u32) {
            self.keys[entry] ^= 1 << (bit % self.config.key_bits);
        }

        fn refresh_in_flight(&self, now: Cycle) -> bool {
            self.refresh
                .as_ref()
                .is_some_and(|(started_at, _)| now < started_at + self.duration())
        }
    }

    /// How often each path of a [`snapshot_model_run`] ran.
    #[derive(Debug, Default)]
    struct Paths {
        /// Refreshes that landed mid-rewrite, past the pipeline fill.
        overlapping: u64,
        /// Refreshes after a complete rewrite that no read retired.
        unretired: u64,
        /// Refreshes after a retired rewrite.
        retired: u64,
        /// Stale reads before a delayed refresh started.
        early_reads: u64,
        /// Refreshes with no read since the refresh before them.
        back_to_back: u64,
        /// Stale reads of an entry the old generation had not filled.
        unfilled_stale_reads: u64,
        /// Mid-rewrite refreshes whose copied prefix held an unfilled entry.
        unfilled_prefixes: u64,
        /// Bit flips of an entry no read had filled.
        unfilled_flips: u64,
    }

    /// The word-wise, filled-on-read refresh against [`SnapshotModel`]:
    /// `refreshes` seeded refreshes on each of four geometries (the
    /// paper's; a partial last word and group; one 64-bit key per word; no
    /// pipeline fill). Refreshes land mid-rewrite, right after a rewrite
    /// completes with and without a read in between, and late, and some
    /// start delayed with reads before their start; half of them are
    /// followed by a bit flip. Every read's key, the stale-hit count, the
    /// generation and `refresh_in_flight` must match throughout.
    fn snapshot_model_run(refreshes: u64, seed: u64) -> Paths {
        let c = cipher();
        let geometries = [
            KeysTableConfig::paper_default(),
            KeysTableConfig::checked(1023, 7, 40, 7).expect("5 keys per word"),
            KeysTableConfig::checked(64, 64, 64, 3).expect("1 key per word"),
            KeysTableConfig::checked(37, 13, 64, 0).expect("no pipeline fill"),
        ];
        let mut sm = bp_common::rng::SplitMix64::new(seed);
        let mut paths = Paths::default();
        fn check(t: &KeysTable, model: &SnapshotModel, now: Cycle, what: &str) {
            assert_eq!(t.stale_hits(), model.stale_hits, "{what} at {now}");
            assert_eq!(t.generation(), model.generation, "{what} at {now}");
            assert_eq!(
                t.refresh_in_flight(now),
                model.refresh_in_flight(now),
                "{what} at {now}"
            );
        }
        /// Reads of random entries at cycles from `from` up to `to`.
        fn reads(
            sm: &mut bp_common::rng::SplitMix64,
            (t, model, paths): (&mut KeysTable, &mut SnapshotModel, &mut Paths),
            from: Cycle,
            to: Cycle,
        ) {
            let mut at = from;
            for _ in 0..24 {
                at += sm.next_below((to - at) / 4 + 1);
                let entry = sm.next_below(model.config.entries as u64) as usize;
                let unfilled_old = t.refresh.as_ref().is_some_and(|r| !r.old.is_filled(entry));
                paths.unfilled_stale_reads += u64::from(model.stale(entry, at) && unfilled_old);
                let key = model.key_at(entry, at);
                assert_eq!(t.key_at(entry, at), key, "entry {entry} at {at}");
                check(t, model, at, "read");
            }
        }
        for cfg in geometries {
            let (mut t, mut model) = (table(cfg), SnapshotModel::new(cfg));
            let duration = t.refresh_duration();
            let mut now: Cycle = 1;
            let mut read_since_refresh = true;
            for _ in 0..refreshes {
                let kind = sm.next_below(4);
                let delay = if kind == 3 {
                    1 + sm.next_below(2 * duration)
                } else {
                    0
                };
                let start = now + delay;
                match &model.refresh {
                    Some((s, _)) if model.refresh_in_flight(start) => {
                        paths.overlapping += u64::from(start > s + cfg.pipeline_fill);
                        let fresh = t
                            .refresh
                            .as_ref()
                            .map_or(0, |r| t.fresh_entries(r.started_at, start));
                        paths.unfilled_prefixes +=
                            u64::from((0..fresh).any(|e| !t.book.is_filled(e)));
                    }
                    Some(_) => paths.unretired += 1,
                    None => paths.retired += 1,
                }
                paths.back_to_back += u64::from(!read_since_refresh);
                let seed = IndexSeed::derive(Asid::new(1), Vmid::new(0), sm.next_u64());
                let timer = sm.next_u64();
                t.begin_refresh(&c, seed, timer, start);
                model.begin_refresh(&c, seed, timer, start);
                check(&t, &model, now, "refresh");
                if sm.next_below(2) == 0 {
                    let (entry, bit) = (
                        sm.next_below(cfg.entries as u64) as usize,
                        sm.next_u64() as u32,
                    );
                    paths.unfilled_flips += u64::from(!t.book.is_filled(entry));
                    t.inject_bit_flip(entry, bit);
                    model.inject_bit_flip(entry, bit);
                }
                read_since_refresh = kind != 1;
                match kind {
                    // Reads partway in; the next refresh lands mid-rewrite.
                    0 => {
                        let mid =
                            start + cfg.pipeline_fill + sm.next_below(duration - cfg.pipeline_fill);
                        reads(&mut sm, (&mut t, &mut model, &mut paths), now, mid);
                        now = mid;
                    }
                    // Complete, and no read retires it.
                    1 => now = start + duration + sm.next_below(3),
                    // Complete, and a read in between retires it.
                    2 => {
                        let end = start + duration + sm.next_below(duration);
                        reads(&mut sm, (&mut t, &mut model, &mut paths), now, end);
                        reads(&mut sm, (&mut t, &mut model, &mut paths), end, end);
                        now = end;
                    }
                    // Delayed: reads before the start, then anywhere after.
                    _ => {
                        let stale_before = t.stale_hits();
                        reads(&mut sm, (&mut t, &mut model, &mut paths), now, start - 1);
                        paths.early_reads += t.stale_hits() - stale_before;
                        now = start + sm.next_below(duration + 2);
                    }
                }
            }
        }
        paths
    }

    /// Every path of a [`snapshot_model_run`] with `refreshes` refreshes
    /// per geometry ran at least its count per 60 refreshes.
    fn assert_paths(paths: &Paths, refreshes: u64) {
        let at_least = |count: u64, per_60: u64| count * 60 >= per_60 * refreshes;
        assert!(
            at_least(paths.overlapping, 20)
                && at_least(paths.unretired, 20)
                && at_least(paths.retired, 20)
                && at_least(paths.early_reads, 100)
                && at_least(paths.back_to_back, 20)
                && at_least(paths.unfilled_stale_reads, 100)
                && at_least(paths.unfilled_prefixes, 20)
                && at_least(paths.unfilled_flips, 40),
            "{paths:?} over {refreshes} refreshes per geometry"
        );
    }

    #[test]
    fn word_wise_refresh_matches_the_per_entry_snapshot_model() {
        let paths = snapshot_model_run(60, 0x5EED);
        assert_paths(&paths, 60);
    }

    /// Ten times the refreshes of the test above, on another seed.
    #[test]
    #[ignore = "long: run with --release --include-ignored"]
    fn word_wise_refresh_matches_the_per_entry_snapshot_model_long() {
        let paths = snapshot_model_run(600, 0x5EED_0010);
        assert_paths(&paths, 600);
    }

    /// QARMA that counts the blocks it encrypts, across every copy of it.
    #[derive(Clone)]
    struct Counting {
        inner: Qarma64,
        blocks: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Counting {
        fn blocks(&self) -> u64 {
            self.blocks.load(std::sync::atomic::Ordering::Relaxed)
        }

        fn count(&self, blocks: usize) {
            self.blocks
                .fetch_add(blocks as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl TweakableBlockCipher for Counting {
        fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
            self.count(1);
            self.inner.encrypt(plaintext, tweak)
        }

        fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
            self.inner.decrypt(ciphertext, tweak)
        }

        fn encrypt_batch(&self, blocks: &mut [u64], tweak: u64) {
            self.count(blocks.len());
            self.inner.encrypt_batch(blocks, tweak);
        }

        fn boxed_copy(&self) -> Box<dyn TweakableBlockCipher> {
            Box::new(self.clone())
        }

        fn latency_cycles(&self) -> u32 {
            self.inner.latency_cycles()
        }

        fn name(&self) -> &'static str {
            "counting-qarma-64"
        }
    }

    /// A refresh encrypts nothing; the first read of an entry encrypts its
    /// group of 8 words (fewer at the end of the table), a second read in
    /// the group nothing, and reading every entry encrypts each word of
    /// the generation once.
    #[test]
    fn refresh_encrypts_only_the_groups_reads_reach() {
        let geometries = [
            KeysTableConfig::paper_default(),
            KeysTableConfig::checked(1023, 7, 40, 7).expect("205 words, last group of 5"),
        ];
        for cfg in geometries {
            let c = Counting {
                inner: cipher(),
                blocks: Default::default(),
            };
            let mut t = table(cfg);
            let (per_word, words) = (cfg.keys_per_word(), cfg.words());
            let mut now: Cycle = 0;
            for generation in 0..3u64 {
                let seed = IndexSeed::derive(Asid::new(1), Vmid::new(0), generation);
                let before = c.blocks();
                t.begin_refresh(&c, seed, generation << 20, now);
                assert_eq!(c.blocks(), before, "{cfg:?}: a refresh encrypts nothing");
                now += t.refresh_duration();
                // The first read of the last group, then a second read in it.
                let last = cfg.entries - 1;
                let group_words = (words - 1) % 8 + 1;
                let _ = t.key_at(last, now);
                assert_eq!(
                    c.blocks(),
                    before + group_words as u64,
                    "{cfg:?}: last group"
                );
                let _ = t.key_at(last - (group_words - 1) * per_word, now);
                assert_eq!(
                    c.blocks(),
                    before + group_words as u64,
                    "{cfg:?}: same group"
                );
                let _ = t.key_at(0, now);
                assert_eq!(
                    c.blocks(),
                    before + group_words as u64 + 8,
                    "{cfg:?}: first group"
                );
                for entry in 0..cfg.entries {
                    let _ = t.key_at(entry, now);
                }
                assert_eq!(c.blocks(), before + words as u64, "{cfg:?}: each word once");
                now += 10;
            }
        }
    }

    #[test]
    fn access_counter_triggers_refresh_request() {
        let mut t = table(KeysTableConfig::with_entries(4));
        assert!(!t.needs_refresh(5));
        for _ in 0..5 {
            let _ = t.key_at(0, 0);
        }
        assert!(t.needs_refresh(5));
        t.begin_refresh(
            &cipher(),
            IndexSeed::derive(Asid::new(0), Vmid::new(0), 0),
            0,
            0,
        );
        assert!(!t.needs_refresh(5), "counter must reset on refresh");
    }

    #[test]
    fn generation_increments() {
        let mut t = table(KeysTableConfig::with_entries(16));
        assert_eq!(t.generation(), 0);
        t.begin_refresh(
            &cipher(),
            IndexSeed::derive(Asid::new(0), Vmid::new(0), 0),
            0,
            0,
        );
        assert_eq!(t.generation(), 1);
    }

    #[test]
    fn out_of_bounds_entry_degrades_gracefully() {
        let mut t = table(KeysTableConfig::with_entries(16));
        let in_range = t.key_at(3, 0);
        assert_eq!(t.key_at(16 + 3, 0), in_range, "folded into range");
        assert_eq!(t.anomalous_reads(), 1);
        let _ = t.key_at(usize::MAX, 0);
        assert_eq!(t.anomalous_reads(), 2);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut t = table(KeysTableConfig::paper_default());
        t.begin_refresh(
            &cipher(),
            IndexSeed::derive(Asid::new(1), Vmid::new(0), 5),
            0,
            0,
        );
        let before = t.key_at(42, 10_000);
        t.inject_bit_flip(42, 3);
        let after = t.key_at(42, 10_000);
        assert_eq!((before ^ after).count_ones(), 1);
        assert!(after < (1 << 10), "flip stays inside the key width");
        t.inject_bit_flip(42, 3);
        assert_eq!(t.key_at(42, 10_000), before, "second flip restores");
    }

    #[test]
    fn forced_counter_saturation_triggers_renewal() {
        let mut t = table(KeysTableConfig::with_entries(8));
        t.force_access_count(1 << 30);
        assert!(t.needs_refresh(PAPER_RENEWAL_THRESHOLD));
    }

    #[test]
    fn index_seed_differs_across_asids() {
        let a = IndexSeed::derive(Asid::new(1), Vmid::new(0), 99);
        let b = IndexSeed::derive(Asid::new(2), Vmid::new(0), 99);
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn index_seed_depends_on_hardware_rand() {
        let a = IndexSeed::derive(Asid::new(1), Vmid::new(0), 1);
        let b = IndexSeed::derive(Asid::new(1), Vmid::new(0), 2);
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn key_manager_rejects_bad_configs() {
        assert!(KeyManager::new(
            Box::new(cipher()),
            0,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            1,
        )
        .is_err());
        assert!(KeyManager::new(
            Box::new(cipher()),
            4,
            KeysTableConfig::paper_default(),
            0,
            1,
        )
        .is_err());
        assert!(KeyManager::new(
            Box::new(cipher()),
            4,
            KeysTableConfig::with_entries(0),
            PAPER_RENEWAL_THRESHOLD,
            1,
        )
        .is_err());
    }

    #[test]
    fn key_manager_renews_per_slot_independently() {
        let mut km = manager(
            4,
            KeysTableConfig::with_entries(64),
            PAPER_RENEWAL_THRESHOLD,
            7,
        );
        let done = km.renew(2, Asid::new(5), Vmid::new(0), 1000);
        assert!(done > 1000);
        assert_eq!(km.slot(2).table().generation(), 1);
        assert_eq!(km.slot(0).table().generation(), 0, "other slots untouched");
        assert_ne!(km.content_key(2), 0);
        assert_eq!(km.content_key(0), 0);
    }

    #[test]
    fn key_manager_counter_renewal() {
        let mut km = manager(1, KeysTableConfig::with_entries(8), 4, 9);
        let mut renewed_count = 0;
        for i in 0..20u64 {
            let (_k, renewed) = km.index_key(0, i, Asid::new(1), Vmid::new(0), i * 10);
            if renewed {
                renewed_count += 1;
            }
        }
        assert!(
            renewed_count >= 4,
            "threshold 4 over 20 accesses: {renewed_count}"
        );
    }

    #[test]
    fn same_pc_slice_same_key_between_renewals() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            11,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let (k1, _) = km.index_key(0, 0x1234, Asid::new(3), Vmid::new(1), 5000);
        let (k2, _) = km.index_key(0, 0x1234, Asid::new(3), Vmid::new(1), 6000);
        assert_eq!(k1, k2);
    }

    #[test]
    fn renewal_changes_index_keys() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            13,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let keys_a: Vec<u64> = (0..64)
            .map(|pc| km.index_key(0, pc, Asid::new(3), Vmid::new(1), 5000).0)
            .collect();
        km.renew(0, Asid::new(3), Vmid::new(1), 10_000);
        let keys_b: Vec<u64> = (0..64)
            .map(|pc| km.index_key(0, pc, Asid::new(3), Vmid::new(1), 20_000).0)
            .collect();
        assert_ne!(keys_a, keys_b);
    }

    #[test]
    fn out_of_range_slot_is_folded() {
        let mut km = manager(
            2,
            KeysTableConfig::with_entries(16),
            PAPER_RENEWAL_THRESHOLD,
            3,
        );
        // Folds to slot 1; must not panic and must behave like slot 1.
        let done = km.renew(5, Asid::new(1), Vmid::new(0), 100);
        assert!(done > 100);
        assert_eq!(km.slot(1).table().generation(), 1);
        let _ = km.index_key(7, 0xAB, Asid::new(1), Vmid::new(0), 200);
    }

    #[test]
    fn key_flip_fault_corrupts_exactly_the_read_entry() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            21,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let clean: Vec<u64> = (0..64)
            .map(|pc| km.index_key(0, pc, Asid::new(3), Vmid::new(1), 5000).0)
            .collect();
        // Flip on every key read: each re-read entry differs by one bit from
        // its previous value.
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(17).with_key_bit_flips(1),
        )));
        let faulted: Vec<u64> = (0..64)
            .map(|pc| km.index_key(0, pc, Asid::new(3), Vmid::new(1), 6000).0)
            .collect();
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!((c ^ f).count_ones(), 1, "one persistent bit flip per read");
            assert!(*f < (1 << 10), "corrupted key stays in width");
        }
    }

    #[test]
    fn dropped_refresh_keeps_stale_keys_but_reports_nominal_timing() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            23,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let gen_before = km.slot(0).table().generation();
        // Drop every refresh request from now on.
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(5).with_refresh_drops(1),
        )));
        let done = km.renew(0, Asid::new(3), Vmid::new(1), 10_000);
        assert_eq!(done, 10_000 + 263, "acknowledged timing is nominal");
        assert_eq!(
            km.slot(0).table().generation(),
            gen_before,
            "rewrite was lost"
        );
    }

    #[test]
    fn delayed_refresh_extends_stale_window_only() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            29,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        let (old_key, _) = km.index_key(0, 0x77, Asid::new(3), Vmid::new(1), 5000);
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(5).with_refresh_delays(1, 10_000),
        )));
        let done = km.renew(0, Asid::new(3), Vmid::new(1), 20_000);
        assert_eq!(done, 20_000 + 263, "acknowledged timing is nominal");
        // At the nominal completion time the rewrite is still 10_000 cycles
        // behind: the old key is still being served.
        let (key, _) = km.index_key(0, 0x77, Asid::new(3), Vmid::new(1), 20_000 + 263);
        assert_eq!(key, old_key, "stale key during the delayed rewrite");
        // Eventually the new generation lands.
        let (late, _) = km.index_key(0, 0x77, Asid::new(3), Vmid::new(1), 40_000);
        assert_eq!(km.slot(0).table().generation(), 2);
        let _ = late;
    }

    #[test]
    fn refresh_stall_and_delay_counters_track_dispositions() {
        let mut km = manager(
            2,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            41,
        );
        assert_eq!((km.refresh_stalls(), km.refresh_delays()), (0, 0));
        // Fault-free renewals count nothing.
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        assert_eq!((km.refresh_stalls(), km.refresh_delays()), (0, 0));
        // Dropped rewrites count as stalls, and only as stalls.
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(5).with_refresh_drops(1),
        )));
        let d1 = km.renew(0, Asid::new(3), Vmid::new(1), 10_000);
        let d2 = km.renew(1, Asid::new(4), Vmid::new(1), 11_000);
        assert_eq!((km.refresh_stalls(), km.refresh_delays()), (2, 0));
        // Counting must not perturb the acknowledged (nominal) timing.
        assert_eq!(d1, 10_000 + 263);
        assert_eq!(d2, 11_000 + 263);
        // Delayed rewrites count as delays, and only as delays.
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(7).with_refresh_delays(1, 5_000),
        )));
        let d3 = km.renew(0, Asid::new(3), Vmid::new(1), 20_000);
        assert_eq!((km.refresh_stalls(), km.refresh_delays()), (2, 1));
        assert_eq!(d3, 20_000 + 263);
    }

    #[test]
    fn counter_saturation_fault_forces_renewal() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            31,
        );
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        km.set_fault_injector(Some(FaultInjector::from_plan(
            FaultPlan::new(5).with_counter_saturation(10),
        )));
        let mut renewals = 0;
        for i in 0..100u64 {
            let (_, renewed) = km.index_key(0, i, Asid::new(3), Vmid::new(1), 5000 + i);
            if renewed {
                renewals += 1;
            }
        }
        assert_eq!(renewals, 10, "every 10th access saturates and renews");
    }

    #[test]
    fn fault_free_manager_has_zero_fault_stats() {
        let mut km = manager(
            1,
            KeysTableConfig::paper_default(),
            PAPER_RENEWAL_THRESHOLD,
            37,
        );
        let inj = FaultInjector::from_plan(FaultPlan::new(0));
        km.set_fault_injector(Some(inj.clone()));
        km.renew(0, Asid::new(3), Vmid::new(1), 0);
        for i in 0..50u64 {
            let _ = km.index_key(0, i, Asid::new(3), Vmid::new(1), 1000 + i);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn renew_emits_nominal_refresh_span_under_every_fault_disposition() {
        use bp_common::telemetry::EventKind;

        let plans = [
            None,
            Some(FaultPlan::new(1).with_refresh_delays(1, 999)),
            Some(FaultPlan::new(2).with_refresh_drops(1)),
        ];
        for plan in plans {
            let mut km = manager(
                2,
                KeysTableConfig::paper_default(),
                PAPER_RENEWAL_THRESHOLD,
                9,
            );
            let sink = bp_common::Telemetry::ring(16);
            km.set_telemetry(sink.clone());
            km.set_fault_injector(plan.map(FaultInjector::from_plan));
            let duration = km.slot(1).table().refresh_duration();
            let done = km.renew(1, Asid::new(3), Vmid::new(0), 500);
            let events = sink.drain();
            assert_eq!(events.len(), 1, "one span per renewal");
            let e = events[0];
            assert_eq!((e.scope, e.name, e.cycle), ("keys", "refresh", 500));
            assert_eq!(
                e.kind,
                EventKind::Span {
                    start: 500,
                    end: 500 + duration,
                    slot: 1,
                },
                "span must cover the nominal window regardless of faults"
            );
            assert_eq!(done, e.span_bounds().unwrap().1);
        }
    }
}
