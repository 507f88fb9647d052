//! Textual predictor specifications: a small `name:key=value,...` grammar
//! used by the experiment harness CLI and the sweep generators, so that a
//! configuration can round-trip through a command line or a results file.

use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

use crate::history::MAX_HISTORY_BITS;
use crate::predictor::Predictor;
use crate::predictors::agree::Agree;
use crate::predictors::bimodal::Bimodal;
use crate::predictors::bimode::{BankInit, BiMode, BiModeConfig, ChoiceUpdate, IndexShare};
use crate::predictors::cascade::Cascade;
use crate::predictors::gselect::Gselect;
use crate::predictors::gshare::Gshare;
use crate::predictors::gskew::{Gskew, GskewUpdate};
use crate::predictors::perceptron::Perceptron;
use crate::predictors::statics::{AlwaysNotTaken, AlwaysTaken, Btfnt};
use crate::predictors::tage::Tage;
use crate::predictors::tournament::Tournament;
use crate::predictors::trimode::{TriMode, TriModeConfig};
use crate::predictors::two_level::{HistorySource, TwoLevel};
use crate::predictors::twobcgskew::TwoBcGskew;
use crate::predictors::yags::Yags;

/// A buildable predictor configuration.
///
/// ```
/// use bpred_core::PredictorSpec;
///
/// let spec: PredictorSpec = "bimode:d=10,c=10,h=10".parse()?;
/// let p = spec.build();
/// assert_eq!(p.cost().state_kib(), 0.75);
/// # Ok::<(), bpred_core::ParseSpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Static taken.
    AlwaysTaken,
    /// Static not-taken.
    AlwaysNotTaken,
    /// Static backward-taken / forward-not-taken.
    Btfnt,
    /// Smith bimodal: `2^table_bits` counters.
    Bimodal {
        /// log2 table size.
        table_bits: u32,
    },
    /// gshare: `2^table_bits` counters, `history_bits` of history.
    Gshare {
        /// log2 table size.
        table_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// gselect: address and history concatenated.
    Gselect {
        /// Address bits in the index.
        address_bits: u32,
        /// History bits in the index.
        history_bits: u32,
    },
    /// Yeh–Patt two-level predictor.
    TwoLevel {
        /// First-level history organisation.
        source: HistorySource,
        /// PHT-selecting address bits.
        address_bits: u32,
        /// History length.
        history_bits: u32,
    },
    /// The bi-mode predictor.
    BiMode(BiModeConfig),
    /// The agree predictor.
    Agree {
        /// log2 agreement-PHT size.
        table_bits: u32,
        /// History length.
        history_bits: u32,
        /// log2 bias-bit table size.
        bias_bits: u32,
    },
    /// Three-bank skewed predictor.
    Gskew {
        /// log2 per-bank size.
        bank_bits: u32,
        /// History length.
        history_bits: u32,
        /// Train all banks every branch instead of partial update.
        total_update: bool,
    },
    /// YAGS exception-cache predictor.
    Yags {
        /// log2 choice-PHT size.
        choice_bits: u32,
        /// log2 exception-cache size.
        cache_bits: u32,
        /// History length.
        history_bits: u32,
        /// Partial tag width.
        tag_bits: u32,
    },
    /// Classic McFarling tournament: bimodal + single-PHT gshare of the
    /// given size with a same-size meta table.
    Tournament {
        /// log2 size shared by both components and the meta table.
        table_bits: u32,
    },
    /// The tri-mode extension (bi-mode plus a weak bank).
    TriMode {
        /// log2 of each direction bank.
        direction_bits: u32,
        /// log2 of the choice/conflict tables.
        choice_bits: u32,
        /// History length.
        history_bits: u32,
    },
    /// The 2bc-gskew hybrid (bimodal + two skewed banks + meta).
    TwoBcGskew {
        /// log2 per-bank size (four banks).
        bank_bits: u32,
        /// Long history length (the short one is half).
        history_bits: u32,
    },
    /// TAGE: bimodal base plus tagged geometric-history tables.
    Tage {
        /// Number of tagged component tables.
        tables: u32,
        /// History length of the longest component.
        max_history: u32,
        /// Partial tag width per entry.
        tag_bits: u32,
        /// log2 entries per table (base included).
        entry_bits: u32,
    },
    /// Perceptron: `2^rows_bits` rows of signed per-history-bit weights.
    Perceptron {
        /// log2 row count.
        rows_bits: u32,
        /// History length (= weights per row).
        history_bits: u32,
        /// Training threshold.
        theta: u32,
    },
    /// Confidence-gated cascade over `;`-separated component specs
    /// (themselves drawn from this grammar; cascades do not nest).
    Cascade(Vec<PredictorSpec>),
}

impl PredictorSpec {
    /// Builds the predictor this spec describes.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate a predictor's constructor
    /// constraints (for example `history_bits > table_bits` for gshare).
    /// Specs produced by [`FromStr`] parsing never do: the parser
    /// rejects every such combination with a [`ParseSpecError`].
    #[must_use]
    pub fn build(&self) -> Box<dyn Predictor> {
        match *self {
            PredictorSpec::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorSpec::AlwaysNotTaken => Box::new(AlwaysNotTaken),
            PredictorSpec::Btfnt => Box::new(Btfnt),
            PredictorSpec::Bimodal { table_bits } => Box::new(Bimodal::new(table_bits)),
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => Box::new(Gshare::new(table_bits, history_bits)),
            PredictorSpec::Gselect {
                address_bits,
                history_bits,
            } => Box::new(Gselect::new(address_bits, history_bits)),
            PredictorSpec::TwoLevel {
                source,
                address_bits,
                history_bits,
            } => Box::new(TwoLevel::new(source, address_bits, history_bits)),
            PredictorSpec::BiMode(config) => Box::new(BiMode::new(config)),
            PredictorSpec::Agree {
                table_bits,
                history_bits,
                bias_bits,
            } => Box::new(Agree::new(table_bits, history_bits, bias_bits)),
            PredictorSpec::Gskew {
                bank_bits,
                history_bits,
                total_update,
            } => {
                let update = if total_update {
                    GskewUpdate::Total
                } else {
                    GskewUpdate::Partial
                };
                Box::new(Gskew::with_update(bank_bits, history_bits, update))
            }
            PredictorSpec::Yags {
                choice_bits,
                cache_bits,
                history_bits,
                tag_bits,
            } => Box::new(Yags::new(choice_bits, cache_bits, history_bits, tag_bits)),
            PredictorSpec::Tournament { table_bits } => Box::new(Tournament::new(
                Box::new(Bimodal::new(table_bits)),
                Box::new(Gshare::new(table_bits, table_bits)),
                table_bits,
            )),
            PredictorSpec::TriMode {
                direction_bits,
                choice_bits,
                history_bits,
            } => Box::new(TriMode::new(TriModeConfig::new(
                direction_bits,
                choice_bits,
                history_bits,
            ))),
            PredictorSpec::TwoBcGskew {
                bank_bits,
                history_bits,
            } => Box::new(TwoBcGskew::new(bank_bits, history_bits)),
            PredictorSpec::Tage {
                tables,
                max_history,
                tag_bits,
                entry_bits,
            } => Box::new(Tage::new(tables, max_history, tag_bits, entry_bits)),
            PredictorSpec::Perceptron {
                rows_bits,
                history_bits,
                theta,
            } => Box::new(Perceptron::new(rows_bits, history_bits, theta)),
            PredictorSpec::Cascade(ref stages) => Box::new(Cascade::new(
                stages.iter().map(PredictorSpec::build).collect(),
            )),
        }
    }

    /// Stable content fingerprint of this spec: FNV-1a-64 over the
    /// canonical grammar string ([`fmt::Display`]). Because `Display`
    /// round-trips through [`FromStr`] (property-tested below and in
    /// `bpred-check`'s grammar audit), the fingerprint covers every
    /// cost-bearing field — two specs hash alike exactly when they
    /// describe the same predictor — and stays stable across processes
    /// and compiler versions, unlike `std::hash::Hash`. The harness
    /// uses it as the configuration half of a result-store job key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        for b in self.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Checks every field combination a constructor asserts on, naming
    /// the grammar keys of the first violated one, so a spec that
    /// passes builds without panicking. Cascade stages are checked when
    /// they are parsed.
    fn check(&self) -> Result<(), String> {
        match *self {
            PredictorSpec::AlwaysTaken
            | PredictorSpec::AlwaysNotTaken
            | PredictorSpec::Btfnt
            | PredictorSpec::Cascade(_) => Ok(()),
            PredictorSpec::Bimodal { table_bits } | PredictorSpec::Tournament { table_bits } => {
                within("s", table_bits, 0..=MAX_INDEX_BITS)
            }
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => {
                within("s", table_bits, 0..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=table_bits)
            }
            PredictorSpec::Gselect {
                address_bits,
                history_bits,
            } => index_sum(address_bits, history_bits),
            PredictorSpec::TwoLevel {
                source,
                address_bits,
                history_bits,
            } => {
                match source {
                    HistorySource::Global => {}
                    HistorySource::PerAddress { index_bits } => {
                        within("i", index_bits, 0..=MAX_INDEX_BITS)?;
                    }
                    HistorySource::PerSet { index_bits, shift } => {
                        within("i", index_bits, 0..=MAX_INDEX_BITS)?;
                        within("k", shift, 0..=63)?;
                    }
                }
                index_sum(address_bits, history_bits)
            }
            PredictorSpec::BiMode(config) => {
                within("c", config.choice_bits, 0..=MAX_INDEX_BITS)?;
                match config.index_share {
                    IndexShare::Shared => {
                        within("d", config.direction_bits, 0..=MAX_INDEX_BITS)?;
                        within("h", config.history_bits, 0..=config.direction_bits)
                    }
                    IndexShare::SkewedPerBank => {
                        within("d", config.direction_bits, 1..=MAX_INDEX_BITS)?;
                        within("h", config.history_bits, 0..=MAX_HISTORY_BITS)
                    }
                }
            }
            PredictorSpec::Agree {
                table_bits,
                history_bits,
                bias_bits,
            } => {
                within("s", table_bits, 0..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=table_bits)?;
                within("b", bias_bits, 0..=MAX_INDEX_BITS)
            }
            PredictorSpec::Gskew {
                bank_bits,
                history_bits,
                ..
            } => {
                within("s", bank_bits, 1..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=MAX_HISTORY_BITS)
            }
            PredictorSpec::Yags {
                choice_bits,
                cache_bits,
                history_bits,
                tag_bits,
            } => {
                within("c", choice_bits, 0..=MAX_INDEX_BITS)?;
                within("e", cache_bits, 0..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=MAX_HISTORY_BITS)?;
                within("t", tag_bits, 0..=16)
            }
            PredictorSpec::TriMode {
                direction_bits,
                choice_bits,
                history_bits,
            } => {
                within("d", direction_bits, 0..=MAX_INDEX_BITS)?;
                within("c", choice_bits, 0..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=direction_bits)
            }
            PredictorSpec::TwoBcGskew {
                bank_bits,
                history_bits,
            } => {
                within("s", bank_bits, 1..=MAX_INDEX_BITS)?;
                within("h", history_bits, 0..=bank_bits)
            }
            PredictorSpec::Tage {
                tables,
                max_history,
                tag_bits,
                entry_bits,
            } => {
                within("t", tables, 1..=16)?;
                within("h", max_history, 1..=MAX_HISTORY_BITS)?;
                within("tag", tag_bits, 1..=16)?;
                within("e", entry_bits, 1..=20)
            }
            PredictorSpec::Perceptron {
                rows_bits,
                history_bits,
                ..
            } => {
                within("n", rows_bits, 0..=20)?;
                within("h", history_bits, 1..=MAX_HISTORY_BITS)
            }
        }
    }
}

/// The widest table index any constructor accepts.
const MAX_INDEX_BITS: u32 = 30;

/// Rejects a parameter outside the range its constructor accepts.
fn within(key: &str, value: u32, range: RangeInclusive<u32>) -> Result<(), String> {
    if range.contains(&value) {
        Ok(())
    } else {
        Err(format!(
            "`{key}` = {value} is outside {}..={}",
            range.start(),
            range.end()
        ))
    }
}

/// Rejects an address + history concatenation wider than a table index.
fn index_sum(address_bits: u32, history_bits: u32) -> Result<(), String> {
    if u64::from(address_bits) + u64::from(history_bits) <= u64::from(MAX_INDEX_BITS) {
        Ok(())
    } else {
        Err(format!(
            "address + history bits {address_bits} + {history_bits} exceed the \
             {MAX_INDEX_BITS}-bit table index"
        ))
    }
}

/// Error returned when a predictor spec string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    message: String,
}

impl ParseSpecError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid predictor spec: {}", self.message)
    }
}

impl std::error::Error for ParseSpecError {}

/// Key=value parameter list parsed from the part after `:`, carrying
/// the predictor name and its valid keys so every error can say which
/// key offended and what the grammar accepts there.
struct Params<'a> {
    name: &'a str,
    valid_keys: &'static [&'static str],
    pairs: Vec<(&'a str, &'a str)>,
}

/// Renders a valid-key list for error messages.
fn keys_desc(valid_keys: &[&str]) -> String {
    if valid_keys.is_empty() {
        "takes no parameters".to_owned()
    } else {
        format!("valid keys: {}", valid_keys.join(", "))
    }
}

impl<'a> Params<'a> {
    fn parse(
        name: &'a str,
        valid_keys: &'static [&'static str],
        s: &'a str,
    ) -> Result<Self, ParseSpecError> {
        let mut pairs = Vec::new();
        if !s.is_empty() {
            for item in s.split(',') {
                let (k, v) = item.split_once('=').ok_or_else(|| {
                    ParseSpecError::new(format!(
                        "`{name}`: expected key=value, got `{item}` ({})",
                        keys_desc(valid_keys)
                    ))
                })?;
                pairs.push((k.trim(), v.trim()));
            }
        }
        let params = Self {
            name,
            valid_keys,
            pairs,
        };
        if let Some((k, _)) = params.pairs.iter().find(|(k, _)| !valid_keys.contains(k)) {
            return Err(ParseSpecError::new(format!(
                "unknown key `{k}` for `{name}` ({})",
                keys_desc(valid_keys)
            )));
        }
        Ok(params)
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn num(&self, key: &str) -> Result<u32, ParseSpecError> {
        let v = self.get(key).ok_or_else(|| {
            ParseSpecError::new(format!(
                "missing parameter `{key}` for `{}` ({})",
                self.name,
                keys_desc(self.valid_keys)
            ))
        })?;
        v.parse().map_err(|_| {
            ParseSpecError::new(format!(
                "`{}`: parameter `{key}`: `{v}` is not a number",
                self.name
            ))
        })
    }

    fn num_or(&self, key: &str, default: u32) -> Result<u32, ParseSpecError> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| {
                ParseSpecError::new(format!(
                    "`{}`: parameter `{key}`: `{v}` is not a number",
                    self.name
                ))
            }),
            None => Ok(default),
        }
    }
}

/// The spec grammar: every recognised predictor name paired with the
/// keys its parameter list accepts, in registry order.
///
/// This is the single source of truth the parser validates against and
/// the `bpred-check` registry audit cross-checks for completeness.
pub const GRAMMAR: &[(&str, &[&str])] = &[
    ("always-taken", &[]),
    ("always-not-taken", &[]),
    ("btfnt", &[]),
    ("bimodal", &["s"]),
    ("gshare", &["s", "h"]),
    ("gselect", &["a", "h"]),
    ("gag", &["h"]),
    ("gas", &["a", "h"]),
    ("pag", &["i", "h"]),
    ("pas", &["i", "a", "h"]),
    ("sag", &["i", "k", "h"]),
    ("sas", &["i", "k", "a", "h"]),
    ("bimode", &["d", "c", "h", "choice", "init", "index"]),
    ("agree", &["s", "h", "b"]),
    ("gskew", &["s", "h", "update"]),
    ("yags", &["c", "e", "h", "t"]),
    ("tournament", &["s"]),
    ("2bcgskew", &["s", "h"]),
    ("trimode", &["d", "c", "h"]),
    ("tage", &["t", "h", "tag", "e"]),
    ("perceptron", &["n", "h", "theta"]),
    // `cascade` takes `;`-separated stage specs, not key=value pairs;
    // the parser special-cases it before parameter splitting.
    ("cascade", &[]),
];

/// The valid keys for a grammar name, if the name is recognised.
fn grammar_keys(name: &str) -> Option<&'static [&'static str]> {
    GRAMMAR
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, keys)| *keys)
}

impl FromStr for PredictorSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n.trim(), r.trim()),
            None => (s.trim(), ""),
        };
        let keys = grammar_keys(name).ok_or_else(|| {
            ParseSpecError::new(format!(
                "unknown predictor `{name}` (known: {})",
                GRAMMAR
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        // The cascade body is a `;`-separated list of stage specs from
        // this same grammar (each containing its own `:` and `,`), so
        // it never goes through the key=value splitter.
        if name == "cascade" {
            if rest.is_empty() {
                return Err(ParseSpecError::new(
                    "`cascade` wants at least two `;`-separated stage specs",
                ));
            }
            let stages = rest
                .split(';')
                .map(|stage| stage.trim().parse::<PredictorSpec>())
                .collect::<Result<Vec<_>, _>>()?;
            if stages.len() < 2 {
                return Err(ParseSpecError::new(format!(
                    "`cascade` wants at least two stages, got {}",
                    stages.len()
                )));
            }
            if stages
                .iter()
                .any(|s| matches!(s, PredictorSpec::Cascade(_)))
            {
                return Err(ParseSpecError::new(
                    "cascade stages cannot be nested cascades",
                ));
            }
            return Ok(PredictorSpec::Cascade(stages));
        }
        let p = Params::parse(name, keys, rest)?;
        let spec = match name {
            "always-taken" => Ok(PredictorSpec::AlwaysTaken),
            "always-not-taken" => Ok(PredictorSpec::AlwaysNotTaken),
            "btfnt" => Ok(PredictorSpec::Btfnt),
            "bimodal" => Ok(PredictorSpec::Bimodal {
                table_bits: p.num("s")?,
            }),
            "gshare" => Ok(PredictorSpec::Gshare {
                table_bits: p.num("s")?,
                history_bits: p.num("h")?,
            }),
            "gselect" => Ok(PredictorSpec::Gselect {
                address_bits: p.num("a")?,
                history_bits: p.num("h")?,
            }),
            "gag" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::Global,
                address_bits: 0,
                history_bits: p.num("h")?,
            }),
            "gas" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::Global,
                address_bits: p.num("a")?,
                history_bits: p.num("h")?,
            }),
            "pag" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::PerAddress {
                    index_bits: p.num("i")?,
                },
                address_bits: 0,
                history_bits: p.num("h")?,
            }),
            "pas" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::PerAddress {
                    index_bits: p.num("i")?,
                },
                address_bits: p.num("a")?,
                history_bits: p.num("h")?,
            }),
            "sag" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::PerSet {
                    index_bits: p.num("i")?,
                    shift: p.num_or("k", 6)?,
                },
                address_bits: 0,
                history_bits: p.num("h")?,
            }),
            "sas" => Ok(PredictorSpec::TwoLevel {
                source: HistorySource::PerSet {
                    index_bits: p.num("i")?,
                    shift: p.num_or("k", 6)?,
                },
                address_bits: p.num("a")?,
                history_bits: p.num("h")?,
            }),
            "bimode" => {
                let d = p.num("d")?;
                let mut config = BiModeConfig::new(d, p.num_or("c", d)?, p.num_or("h", d)?);
                config.choice_update = match p.get("choice") {
                    None | Some("partial") => ChoiceUpdate::Partial,
                    Some("always") => ChoiceUpdate::Always,
                    Some(v) => {
                        return Err(ParseSpecError::new(format!(
                            "choice must be partial|always, got `{v}`"
                        )))
                    }
                };
                config.bank_init = match p.get("init") {
                    None | Some("split") => BankInit::Split,
                    Some("uniform") => BankInit::UniformWeaklyTaken,
                    Some(v) => {
                        return Err(ParseSpecError::new(format!(
                            "init must be split|uniform, got `{v}`"
                        )))
                    }
                };
                config.index_share = match p.get("index") {
                    None | Some("shared") => IndexShare::Shared,
                    Some("skewed") => IndexShare::SkewedPerBank,
                    Some(v) => {
                        return Err(ParseSpecError::new(format!(
                            "index must be shared|skewed, got `{v}`"
                        )))
                    }
                };
                Ok(PredictorSpec::BiMode(config))
            }
            "agree" => Ok(PredictorSpec::Agree {
                table_bits: p.num("s")?,
                history_bits: p.num("h")?,
                bias_bits: p.num_or("b", p.num("s")?)?,
            }),
            "gskew" => Ok(PredictorSpec::Gskew {
                bank_bits: p.num("s")?,
                history_bits: p.num("h")?,
                total_update: match p.get("update") {
                    None | Some("partial") => false,
                    Some("total") => true,
                    Some(v) => {
                        return Err(ParseSpecError::new(format!(
                            "update must be partial|total, got `{v}`"
                        )))
                    }
                },
            }),
            "yags" => Ok(PredictorSpec::Yags {
                choice_bits: p.num("c")?,
                cache_bits: p.num("e")?,
                history_bits: p.num("h")?,
                tag_bits: p.num_or("t", 6)?,
            }),
            "tournament" => Ok(PredictorSpec::Tournament {
                table_bits: p.num("s")?,
            }),
            "2bcgskew" => Ok(PredictorSpec::TwoBcGskew {
                bank_bits: p.num("s")?,
                history_bits: p.num("h")?,
            }),
            "trimode" => {
                let d = p.num("d")?;
                Ok(PredictorSpec::TriMode {
                    direction_bits: d,
                    choice_bits: p.num_or("c", d)?,
                    history_bits: p.num_or("h", d)?,
                })
            }
            "tage" => Ok(PredictorSpec::Tage {
                tables: p.num("t")?,
                max_history: p.num("h")?,
                tag_bits: p.num_or("tag", 8)?,
                entry_bits: p.num("e")?,
            }),
            "perceptron" => {
                let h = p.num("h")?;
                Ok(PredictorSpec::Perceptron {
                    rows_bits: p.num("n")?,
                    history_bits: h,
                    theta: p.num_or("theta", Perceptron::default_theta(h))?,
                })
            }
            other => Err(ParseSpecError::new(format!("unknown predictor `{other}`"))),
        }?;
        spec.check()
            .map_err(|rule| ParseSpecError::new(format!("`{name}`: {rule}")))?;
        Ok(spec)
    }
}

impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorSpec::AlwaysTaken => f.write_str("always-taken"),
            PredictorSpec::AlwaysNotTaken => f.write_str("always-not-taken"),
            PredictorSpec::Btfnt => f.write_str("btfnt"),
            PredictorSpec::Bimodal { table_bits } => write!(f, "bimodal:s={table_bits}"),
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => {
                write!(f, "gshare:s={table_bits},h={history_bits}")
            }
            PredictorSpec::Gselect {
                address_bits,
                history_bits,
            } => {
                write!(f, "gselect:a={address_bits},h={history_bits}")
            }
            PredictorSpec::TwoLevel {
                source,
                address_bits,
                history_bits,
            } => match source {
                HistorySource::Global if *address_bits == 0 => {
                    write!(f, "gag:h={history_bits}")
                }
                HistorySource::Global => write!(f, "gas:a={address_bits},h={history_bits}"),
                HistorySource::PerAddress { index_bits } if *address_bits == 0 => {
                    write!(f, "pag:i={index_bits},h={history_bits}")
                }
                HistorySource::PerAddress { index_bits } => {
                    write!(f, "pas:i={index_bits},a={address_bits},h={history_bits}")
                }
                HistorySource::PerSet { index_bits, shift } if *address_bits == 0 => {
                    write!(f, "sag:i={index_bits},k={shift},h={history_bits}")
                }
                HistorySource::PerSet { index_bits, shift } => {
                    write!(
                        f,
                        "sas:i={index_bits},k={shift},a={address_bits},h={history_bits}"
                    )
                }
            },
            PredictorSpec::BiMode(c) => {
                write!(
                    f,
                    "bimode:d={},c={},h={}",
                    c.direction_bits, c.choice_bits, c.history_bits
                )?;
                if c.choice_update == ChoiceUpdate::Always {
                    f.write_str(",choice=always")?;
                }
                if c.bank_init == BankInit::UniformWeaklyTaken {
                    f.write_str(",init=uniform")?;
                }
                if c.index_share == IndexShare::SkewedPerBank {
                    f.write_str(",index=skewed")?;
                }
                Ok(())
            }
            PredictorSpec::Agree {
                table_bits,
                history_bits,
                bias_bits,
            } => {
                write!(f, "agree:s={table_bits},h={history_bits},b={bias_bits}")
            }
            PredictorSpec::Gskew {
                bank_bits,
                history_bits,
                total_update,
            } => {
                write!(f, "gskew:s={bank_bits},h={history_bits}")?;
                if *total_update {
                    f.write_str(",update=total")?;
                }
                Ok(())
            }
            PredictorSpec::Yags {
                choice_bits,
                cache_bits,
                history_bits,
                tag_bits,
            } => {
                write!(
                    f,
                    "yags:c={choice_bits},e={cache_bits},h={history_bits},t={tag_bits}"
                )
            }
            PredictorSpec::Tournament { table_bits } => write!(f, "tournament:s={table_bits}"),
            PredictorSpec::TriMode {
                direction_bits,
                choice_bits,
                history_bits,
            } => {
                write!(
                    f,
                    "trimode:d={direction_bits},c={choice_bits},h={history_bits}"
                )
            }
            PredictorSpec::TwoBcGskew {
                bank_bits,
                history_bits,
            } => {
                write!(f, "2bcgskew:s={bank_bits},h={history_bits}")
            }
            PredictorSpec::Tage {
                tables,
                max_history,
                tag_bits,
                entry_bits,
            } => {
                write!(
                    f,
                    "tage:t={tables},h={max_history},tag={tag_bits},e={entry_bits}"
                )
            }
            PredictorSpec::Perceptron {
                rows_bits,
                history_bits,
                theta,
            } => {
                // theta is always rendered so the canonical string (and
                // with it the fingerprint) does not depend on whether
                // the default was spelled out.
                write!(f, "perceptron:n={rows_bits},h={history_bits},theta={theta}")
            }
            PredictorSpec::Cascade(stages) => {
                f.write_str("cascade:")?;
                for (i, stage) in stages.iter().enumerate() {
                    if i > 0 {
                        f.write_str(";")?;
                    }
                    write!(f, "{stage}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> PredictorSpec {
        let spec: PredictorSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        let shown = spec.to_string();
        let again: PredictorSpec = shown.parse().unwrap();
        assert_eq!(spec, again, "display/parse roundtrip for {s} via {shown}");
        spec
    }

    #[test]
    fn every_scheme_roundtrips_and_builds() {
        for s in [
            "always-taken",
            "always-not-taken",
            "btfnt",
            "bimodal:s=8",
            "gshare:s=10,h=8",
            "gselect:a=3,h=5",
            "gag:h=10",
            "gas:a=2,h=8",
            "pag:i=4,h=6",
            "pas:i=4,a=2,h=6",
            "sag:i=4,k=5,h=6",
            "sas:i=4,k=5,a=2,h=6",
            "bimode:d=8,c=8,h=8",
            "bimode:d=8,c=6,h=7,choice=always,init=uniform,index=skewed",
            "agree:s=10,h=8,b=9",
            "gskew:s=8,h=8",
            "gskew:s=8,h=8,update=total",
            "yags:c=8,e=6,h=6,t=6",
            "tournament:s=8",
            "trimode:d=8,c=8,h=8",
            "2bcgskew:s=8,h=8",
            "tage:t=4,h=32,tag=8,e=8",
            "perceptron:n=6,h=12,theta=37",
            "cascade:bimodal:s=6;tage:t=2,h=8,tag=6,e=5;perceptron:n=4,h=8,theta=29",
        ] {
            let spec = roundtrip(s);
            let p = spec.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn bimode_defaults_choice_and_history_to_direction() {
        let spec: PredictorSpec = "bimode:d=9".parse().unwrap();
        assert_eq!(spec, PredictorSpec::BiMode(BiModeConfig::paper_default(9)));
    }

    #[test]
    fn built_names_match_schemes() {
        let p = PredictorSpec::from_str("gshare:s=10,h=7").unwrap().build();
        assert_eq!(p.name(), "gshare(s=10,h=7)");
        let p = PredictorSpec::from_str("bimode:d=7").unwrap().build();
        assert_eq!(p.name(), "bi-mode(d=7,c=7,h=7)");
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let err = PredictorSpec::from_str("nonsense:x=1").unwrap_err();
        assert!(err.to_string().contains("unknown predictor"));
        assert!(
            err.to_string().contains("bimode"),
            "unknown-name errors list the known names: {err}"
        );
        let err = PredictorSpec::from_str("gshare:s=10").unwrap_err();
        assert!(err.to_string().contains("missing parameter `h`"));
        assert!(
            err.to_string().contains("valid keys: s, h"),
            "missing-key errors list the valid keys: {err}"
        );
        let err = PredictorSpec::from_str("gshare:s=ten,h=2").unwrap_err();
        assert!(err.to_string().contains("not a number"));
        let err = PredictorSpec::from_str("gshare:s").unwrap_err();
        assert!(err.to_string().contains("key=value"));
        let err = PredictorSpec::from_str("bimode:d=8,choice=sometimes").unwrap_err();
        assert!(err.to_string().contains("partial|always"));
    }

    #[test]
    fn unbuildable_specs_are_parse_errors_naming_the_key() {
        // Each parses as grammar but violates a constructor bound; the
        // error names the predictor and the offending key.
        let cases = [
            ("gshare:s=4,h=9", "`gshare`: `h` = 9"),
            ("bimodal:s=31", "`bimodal`: `s` = 31"),
            ("bimode:d=4,h=9", "`bimode`: `h` = 9"),
            ("bimode:d=0,index=skewed", "`bimode`: `d` = 0"),
            ("gskew:s=0,h=0", "`gskew`: `s` = 0"),
            ("yags:c=8,e=31,h=6", "`yags`: `e` = 31"),
            ("sag:i=4,k=64,h=6", "`sag`: `k` = 64"),
            ("tage:t=40,h=10,e=5", "`tage`: `t` = 40"),
            ("perceptron:n=30,h=10", "`perceptron`: `n` = 30"),
            (
                "perceptron:n=4,h=4294967295",
                "`perceptron`: `h` = 4294967295",
            ),
            ("gselect:a=20,h=20", "bits 20 + 20 exceed"),
            ("gselect:a=15,h=16", "bits 15 + 16 exceed"),
            ("pas:i=4,a=4294967295,h=1", "bits 4294967295 + 1 exceed"),
            ("cascade:bimodal:s=4;gshare:s=4,h=9", "`gshare`: `h` = 9"),
        ];
        for (input, want) in cases {
            let err = PredictorSpec::from_str(input).unwrap_err().to_string();
            assert!(err.contains(want), "{input}: {err}");
        }
        // The widest concatenation that fits still parses.
        assert!(PredictorSpec::from_str("gselect:a=14,h=16").is_ok());
    }

    #[test]
    fn unknown_keys_are_rejected_naming_key_and_valid_set() {
        // One misspelled or foreign key per variant: each error must name
        // the offending key, the predictor, and that predictor's keys.
        let cases = [
            ("bimodal:s=8,z=1", "z", "valid keys: s"),
            ("gshare:s=8,h=8,size=4", "size", "valid keys: s, h"),
            ("gselect:a=3,h=5,s=2", "s", "valid keys: a, h"),
            ("gag:h=4,a=1", "a", "valid keys: h"),
            ("gas:a=2,h=4,i=3", "i", "valid keys: a, h"),
            ("pag:i=4,h=6,a=2", "a", "valid keys: i, h"),
            ("pas:i=4,a=2,h=6,k=1", "k", "valid keys: i, a, h"),
            ("sag:i=4,k=5,h=6,t=2", "t", "valid keys: i, k, h"),
            ("sas:i=4,k=5,a=2,h=6,b=1", "b", "valid keys: i, k, a, h"),
            (
                "bimode:d=8,dir=skewed",
                "dir",
                "valid keys: d, c, h, choice, init, index",
            ),
            ("agree:s=8,h=8,bias=8", "bias", "valid keys: s, h, b"),
            (
                "gskew:s=8,h=8,mode=total",
                "mode",
                "valid keys: s, h, update",
            ),
            ("yags:c=8,e=6,h=6,tag=4", "tag", "valid keys: c, e, h, t"),
            ("tournament:s=8,m=8", "m", "valid keys: s"),
            ("2bcgskew:s=8,h=8,g=2", "g", "valid keys: s, h"),
            ("trimode:d=8,w=2", "w", "valid keys: d, c, h"),
            (
                "tage:t=4,h=16,tag=8,e=8,u=2",
                "u",
                "valid keys: t, h, tag, e",
            ),
            ("perceptron:n=6,h=12,w=8", "w", "valid keys: n, h, theta"),
        ];
        for (input, bad_key, valid) in cases {
            let err = PredictorSpec::from_str(input).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key `{bad_key}`")),
                "{input}: error must name the offending key: {err}"
            );
            assert!(
                err.contains(valid),
                "{input}: error must list the valid keys: {err}"
            );
        }
    }

    #[test]
    fn static_predictors_reject_any_parameters() {
        for input in ["always-taken:s=1", "always-not-taken:x=2", "btfnt:h=3"] {
            let err = PredictorSpec::from_str(input).unwrap_err().to_string();
            assert!(err.contains("unknown key"), "{input}: {err}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let spec: PredictorSpec = " gshare : s=10 , h=4 ".parse().unwrap();
        assert_eq!(
            spec,
            PredictorSpec::Gshare {
                table_bits: 10,
                history_bits: 4
            }
        );
    }

    #[test]
    fn tage_defaults_tag_to_eight_and_perceptron_theta_to_the_paper_fit() {
        let spec: PredictorSpec = "tage:t=4,h=16,e=9".parse().unwrap();
        assert_eq!(
            spec,
            PredictorSpec::Tage {
                tables: 4,
                max_history: 16,
                tag_bits: 8,
                entry_bits: 9
            }
        );
        let spec: PredictorSpec = "perceptron:n=7,h=16".parse().unwrap();
        assert_eq!(
            spec,
            PredictorSpec::Perceptron {
                rows_bits: 7,
                history_bits: 16,
                theta: 44
            }
        );
        // The default and its spelled-out form are the same spec, so
        // they share one canonical string and one fingerprint.
        let explicit: PredictorSpec = "perceptron:n=7,h=16,theta=44".parse().unwrap();
        assert_eq!(spec.to_string(), explicit.to_string());
        assert_eq!(spec.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn cascade_parses_stage_lists_and_rejects_degenerate_forms() {
        let spec: PredictorSpec = "cascade: bimodal:s=8 ; gshare:s=9,h=9 ".parse().unwrap();
        assert_eq!(
            spec,
            PredictorSpec::Cascade(vec![
                PredictorSpec::Bimodal { table_bits: 8 },
                PredictorSpec::Gshare {
                    table_bits: 9,
                    history_bits: 9
                },
            ])
        );
        let err = "cascade".parse::<PredictorSpec>().unwrap_err().to_string();
        assert!(err.contains("at least two"), "{err}");
        let err = "cascade:bimodal:s=8"
            .parse::<PredictorSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least two stages"), "{err}");
        let err = "cascade:bimodal:s=8;nonsense:x=1"
            .parse::<PredictorSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown predictor"), "{err}");
    }

    #[test]
    fn cascades_do_not_nest() {
        // The `;` split is flat, so an inner `cascade:` can never
        // gather two stages of its own: any nesting spelling fails to
        // parse one way or the other, keeping Display unambiguous.
        for s in [
            "cascade:bimodal:s=8;cascade:bimodal:s=4;gshare:s=4,h=4",
            "cascade:cascade:bimodal:s=4;gshare:s=4,h=4",
        ] {
            assert!(s.parse::<PredictorSpec>().is_err(), "{s} must not parse");
        }
    }

    #[test]
    fn fingerprint_is_canonical_not_textual() {
        // Spelling variants of the same spec agree; the canonical
        // string is what gets hashed, not the user's input.
        let a: PredictorSpec = "gshare:s=10,h=4".parse().unwrap();
        let b: PredictorSpec = " gshare : h=4 , s=10 ".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // And it round-trips: re-parsing the canonical string preserves
        // the fingerprint.
        let reparsed: PredictorSpec = a.to_string().parse().unwrap();
        assert_eq!(reparsed.fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_separates_every_cost_bearing_field() {
        // Pairwise-distinct fingerprints across parameter tweaks of one
        // family and across families.
        let specs = [
            "gshare:s=10,h=4",
            "gshare:s=10,h=5",
            "gshare:s=11,h=4",
            "bimodal:s=10",
            "bimode:d=10",
            "bimode:d=10,choice=always",
            "bimode:d=10,init=uniform",
            "bimode:d=10,index=skewed",
            "bimode:d=10,c=9",
            "bimode:d=10,h=9",
            "trimode:d=10",
            "gskew:s=10,h=10",
            "gskew:s=10,h=10,update=total",
            "tage:t=4,h=32,tag=8,e=10",
            "tage:t=4,h=32,tag=8,e=11",
            "tage:t=5,h=32,tag=8,e=10",
            "tage:t=4,h=33,tag=8,e=10",
            "tage:t=4,h=32,tag=9,e=10",
            "perceptron:n=7,h=16,theta=44",
            "perceptron:n=8,h=16,theta=44",
            "perceptron:n=7,h=17,theta=44",
            "perceptron:n=7,h=16,theta=45",
            "cascade:bimodal:s=10;gshare:s=10,h=10",
            "cascade:bimodal:s=10;gshare:s=10,h=9",
            "cascade:gshare:s=10,h=10;bimodal:s=10",
        ];
        let mut seen = std::collections::HashMap::new();
        for s in specs {
            let spec: PredictorSpec = s.parse().unwrap();
            if let Some(prev) = seen.insert(spec.fingerprint(), s) {
                panic!("fingerprint collision: `{prev}` vs `{s}`");
            }
        }
    }
}
