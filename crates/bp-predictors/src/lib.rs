//! Branch predictor structures for the HyBP reproduction.
//!
//! This crate implements the baseline prediction hardware the paper builds
//! on (its Figure 3): a three-level BTB hierarchy modeled after AMD Zen 2 and
//! a TAGE-SC-L direction predictor, plus a decades-old tournament predictor
//! used by the paper as a reference point for how much performance modern
//! predictors are worth (§VII-F).
//!
//! Security layering is done through the [`codec::TableCodec`] hook. It
//! reaches only the tables a mechanism can randomize: every BTB level (all
//! three share one code path, and entries migrate between levels) and the
//! TAGE tagged tables route their set index, tag and stored content through
//! the codec, so the `hybp` crate can interpose encryption without the
//! predictor structures knowing anything about keys. The small tables (the
//! TAGE base, the statistical corrector, the loop predictor) and the
//! tournament predictor are protected by isolation or not at all, so they
//! index by PC and history alone. The default [`codec::IdentityCodec`]
//! makes the structures behave like conventional unprotected hardware.
//!
//! # Examples
//!
//! ```
//! use bp_predictors::btb::BtbHierarchy;
//! use bp_predictors::codec::IdentityCodec;
//! use bp_common::Addr;
//!
//! let mut btb = BtbHierarchy::zen2();
//! let mut codec = IdentityCodec::new();
//! let pc = Addr::new(0x40_0000);
//! let tgt = Addr::new(0x40_1000);
//! assert!(btb.lookup(pc, &mut codec, 0).is_miss());
//! btb.update(pc, tgt, &mut codec, 0);
//! assert_eq!(btb.lookup(pc, &mut codec, 1).target(), Some(tgt));
//! ```

pub mod bimodal;
pub mod btb;
pub mod budget;
pub mod codec;
pub mod loop_pred;
pub mod ras;
pub mod sc;
pub mod tage;
pub mod tage_scl;
pub mod tournament;
