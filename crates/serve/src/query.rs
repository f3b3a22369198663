//! The query families and their canonical binary codec.
//!
//! Every query has exactly one wire encoding (little-endian fields
//! behind a one-byte family tag, `f64` parameters carried as *canonical*
//! bits — NaNs collapse to one pattern and `-0.0` equals `+0.0`), so a
//! query's bytes double as its memo identity and two clients asking the
//! same question always hash to the same cache key. Responses use the
//! same discipline: pure little-endian field layouts, floats as raw
//! bits, no platform- or thread-dependent content anywhere.

use bp_attacks::spatial::CascadeReport;
use btcpart::experiments::codec::canonical_f64_bits;

/// A parameterized what-if question over the loaded substrate.
///
/// Each variant is a pure function of the substrate: no query mutates
/// the simulation or any other shared state, which is what makes
/// responses byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// What does it cost to partition `target_as`? Prefix counts for
    /// 50 % / 90 % isolation plus the hash share hosted there.
    PartitionCost {
        /// The victim AS number.
        target_as: u32,
    },
    /// BlockAware detection-delay vs false-alarm tradeoff at a given
    /// staleness threshold and block arrival rate λ (blocks/interval).
    BlockawareTradeoff {
        /// Staleness threshold in seconds.
        threshold_secs: u64,
        /// Block arrival rate λ (per 600 s interval); the mean
        /// inter-block gap is `600 / λ` seconds.
        lambda: f64,
    },
    /// Static eclipse of an AS: the top-`prefixes` hijack outcome, with
    /// an optional cascade analysis of the un-hijacked remainder against
    /// the day simulation's peer graph.
    Eclipse {
        /// The victim AS number.
        target_as: u32,
        /// Number of top-ranked prefixes hijacked.
        prefixes: u32,
        /// Whether to also compute the remainder cascade.
        cascade: bool,
    },
    /// Minimum time to isolate the targets picked by a lag selection
    /// over the day crawl (`m` = nodes at least `min_blocks` behind for
    /// `window_samples` consecutive samples), at attack rate λ.
    MinTiming {
        /// Minimum lag (blocks) for a node to count as a target.
        min_blocks: u8,
        /// Consecutive vulnerable samples required.
        window_samples: u16,
        /// Attacker block rate λ used by the temporal model.
        lambda: f64,
    },
}

const TAG_PARTITION_COST: u8 = 1;
const TAG_BLOCKAWARE: u8 = 2;
const TAG_ECLIPSE: u8 = 3;
const TAG_MIN_TIMING: u8 = 4;

impl Query {
    /// The family tag (used for per-family metrics and bench labels).
    pub fn family(&self) -> &'static str {
        match self {
            Query::PartitionCost { .. } => "partition_cost",
            Query::BlockawareTradeoff { .. } => "blockaware_tradeoff",
            Query::Eclipse { .. } => "eclipse",
            Query::MinTiming { .. } => "min_timing",
        }
    }

    /// The canonical encoding: `tag` byte followed by the family's
    /// little-endian field layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match *self {
            Query::PartitionCost { target_as } => {
                out.push(TAG_PARTITION_COST);
                out.extend_from_slice(&target_as.to_le_bytes());
            }
            Query::BlockawareTradeoff {
                threshold_secs,
                lambda,
            } => {
                out.push(TAG_BLOCKAWARE);
                out.extend_from_slice(&threshold_secs.to_le_bytes());
                out.extend_from_slice(&canonical_f64_bits(lambda).to_le_bytes());
            }
            Query::Eclipse {
                target_as,
                prefixes,
                cascade,
            } => {
                out.push(TAG_ECLIPSE);
                out.extend_from_slice(&target_as.to_le_bytes());
                out.extend_from_slice(&prefixes.to_le_bytes());
                out.push(u8::from(cascade));
            }
            Query::MinTiming {
                min_blocks,
                window_samples,
                lambda,
            } => {
                out.push(TAG_MIN_TIMING);
                out.push(min_blocks);
                out.extend_from_slice(&window_samples.to_le_bytes());
                out.extend_from_slice(&canonical_f64_bits(lambda).to_le_bytes());
            }
        }
        out
    }

    /// Decodes one query, validating parameters a server must never
    /// evaluate (non-finite or non-positive λ, junk booleans, trailing
    /// bytes).
    ///
    /// # Errors
    ///
    /// Returns a message naming the defect; malformed queries close the
    /// connection rather than producing an undefined response.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let (&tag, body) = bytes.split_first().ok_or("empty query")?;
        let query = match tag {
            TAG_PARTITION_COST => Query::PartitionCost {
                target_as: u32::from_le_bytes(take(body, 0, "target_as")?),
            },
            TAG_BLOCKAWARE => Query::BlockawareTradeoff {
                threshold_secs: u64::from_le_bytes(take(body, 0, "threshold_secs")?),
                lambda: decode_lambda(body, 8)?,
            },
            TAG_ECLIPSE => Query::Eclipse {
                target_as: u32::from_le_bytes(take(body, 0, "target_as")?),
                prefixes: u32::from_le_bytes(take(body, 4, "prefixes")?),
                cascade: match body.get(8) {
                    Some(0) => false,
                    Some(1) => true,
                    _ => return Err("eclipse cascade flag must be 0 or 1".to_string()),
                },
            },
            TAG_MIN_TIMING => Query::MinTiming {
                min_blocks: *body.first().ok_or("missing min_blocks")?,
                window_samples: u16::from_le_bytes(take(body, 1, "window_samples")?),
                lambda: decode_lambda(body, 3)?,
            },
            other => return Err(format!("unknown query tag {other}")),
        };
        if bytes.len() != query.encode().len() {
            return Err(format!(
                "query tag {tag} carries {} bytes, expected {}",
                bytes.len(),
                query.encode().len()
            ));
        }
        Ok(query)
    }
}

fn take<const N: usize>(body: &[u8], at: usize, field: &str) -> Result<[u8; N], String> {
    body.get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("truncated {field}"))
}

fn decode_lambda(body: &[u8], at: usize) -> Result<f64, String> {
    let lambda = f64::from_bits(u64::from_le_bytes(take(body, at, "lambda")?));
    if !lambda.is_finite() || lambda <= 0.0 {
        return Err(format!("lambda must be finite and positive, got {lambda}"));
    }
    Ok(lambda)
}

/// Answer to a [`Query::PartitionCost`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCostAnswer {
    /// Bitcoin nodes registered in the AS.
    pub members: u32,
    /// Announced prefixes of the AS.
    pub prefixes_total: u32,
    /// Prefix hijacks isolating ≥ 50 % of the AS (`None`: unreachable).
    pub prefixes_50: Option<u32>,
    /// Prefix hijacks isolating ≥ 90 % of the AS.
    pub prefixes_90: Option<u32>,
    /// Hash share whose stratum servers the AS hosts.
    pub hash_share: f64,
}

/// Answer to a [`Query::BlockawareTradeoff`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockawareAnswer {
    /// Echoed threshold.
    pub threshold_secs: u64,
    /// Seconds from isolation to alarm.
    pub detection_delay_secs: u64,
    /// Probability an honest inter-block gap trips the alarm.
    pub false_alarm_rate: f64,
}

/// Answer to a [`Query::Eclipse`].
#[derive(Debug, Clone, PartialEq)]
pub struct EclipseAnswer {
    /// Prefixes actually hijacked (≤ requested).
    pub prefixes_hijacked: u32,
    /// Nodes isolated by those prefixes.
    pub isolated: u32,
    /// Fraction of the AS isolated.
    pub fraction_of_as: f64,
    /// Hash share isolated along with the AS.
    pub hash_share: f64,
    /// Remainder cascade, when requested.
    pub cascade: Option<CascadeReport>,
}

/// Answer to a [`Query::MinTiming`].
#[derive(Debug, Clone, PartialEq)]
pub struct MinTimingAnswer {
    /// Targets matching the selection in the day crawl.
    pub m: u64,
    /// Minimum seconds to isolate them with ≥ 80 % probability
    /// (`None`: infeasible within the search cap).
    pub t_secs: Option<u64>,
}

/// A decoded response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// See [`PartitionCostAnswer`].
    PartitionCost(PartitionCostAnswer),
    /// See [`BlockawareAnswer`].
    Blockaware(BlockawareAnswer),
    /// See [`EclipseAnswer`].
    Eclipse(EclipseAnswer),
    /// See [`MinTimingAnswer`].
    MinTiming(MinTimingAnswer),
}

fn push_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => out.extend_from_slice(&i64::from(v).to_le_bytes()),
        None => out.extend_from_slice(&(-1i64).to_le_bytes()),
    }
}

fn read_opt_u32(body: &[u8], at: usize, field: &str) -> Result<Option<u32>, String> {
    let raw = i64::from_le_bytes(take(body, at, field)?);
    if raw < 0 {
        Ok(None)
    } else {
        u32::try_from(raw)
            .map(Some)
            .map_err(|_| format!("{field} out of range"))
    }
}

impl Answer {
    /// Serializes the answer behind its family tag. Floats keep their
    /// raw bits — the response is the deterministic artifact.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Answer::PartitionCost(a) => {
                out.push(TAG_PARTITION_COST);
                out.extend_from_slice(&a.members.to_le_bytes());
                out.extend_from_slice(&a.prefixes_total.to_le_bytes());
                push_opt_u32(&mut out, a.prefixes_50);
                push_opt_u32(&mut out, a.prefixes_90);
                out.extend_from_slice(&a.hash_share.to_bits().to_le_bytes());
            }
            Answer::Blockaware(a) => {
                out.push(TAG_BLOCKAWARE);
                out.extend_from_slice(&a.threshold_secs.to_le_bytes());
                out.extend_from_slice(&a.detection_delay_secs.to_le_bytes());
                out.extend_from_slice(&a.false_alarm_rate.to_bits().to_le_bytes());
            }
            Answer::Eclipse(a) => {
                out.push(TAG_ECLIPSE);
                out.extend_from_slice(&a.prefixes_hijacked.to_le_bytes());
                out.extend_from_slice(&a.isolated.to_le_bytes());
                out.extend_from_slice(&a.fraction_of_as.to_bits().to_le_bytes());
                out.extend_from_slice(&a.hash_share.to_bits().to_le_bytes());
                match &a.cascade {
                    None => out.push(0),
                    Some(c) => {
                        out.push(1);
                        out.extend_from_slice(&(c.directly_isolated as u64).to_le_bytes());
                        out.extend_from_slice(&(c.remainder as u64).to_le_bytes());
                        out.extend_from_slice(&(c.degraded as u64).to_le_bytes());
                        out.extend_from_slice(&(c.fully_eclipsed as u64).to_le_bytes());
                        out.extend_from_slice(&c.mean_peer_loss.to_bits().to_le_bytes());
                    }
                }
            }
            Answer::MinTiming(a) => {
                out.push(TAG_MIN_TIMING);
                out.extend_from_slice(&a.m.to_le_bytes());
                match a.t_secs {
                    Some(t) => out.extend_from_slice(&(t as i64).to_le_bytes()),
                    None => out.extend_from_slice(&(-1i64).to_le_bytes()),
                }
            }
        }
        out
    }

    /// Decodes a response payload (the client side of the wire).
    ///
    /// # Errors
    ///
    /// Returns a message on truncation or an unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let (&tag, body) = bytes.split_first().ok_or("empty answer")?;
        match tag {
            TAG_PARTITION_COST => Ok(Answer::PartitionCost(PartitionCostAnswer {
                members: u32::from_le_bytes(take(body, 0, "members")?),
                prefixes_total: u32::from_le_bytes(take(body, 4, "prefixes_total")?),
                prefixes_50: read_opt_u32(body, 8, "prefixes_50")?,
                prefixes_90: read_opt_u32(body, 16, "prefixes_90")?,
                hash_share: f64::from_bits(u64::from_le_bytes(take(body, 24, "hash_share")?)),
            })),
            TAG_BLOCKAWARE => Ok(Answer::Blockaware(BlockawareAnswer {
                threshold_secs: u64::from_le_bytes(take(body, 0, "threshold_secs")?),
                detection_delay_secs: u64::from_le_bytes(take(body, 8, "detection_delay")?),
                false_alarm_rate: f64::from_bits(u64::from_le_bytes(take(body, 16, "rate")?)),
            })),
            TAG_ECLIPSE => {
                let cascade = match body.get(24) {
                    Some(0) => None,
                    Some(1) => Some(CascadeReport {
                        directly_isolated: u64::from_le_bytes(take(body, 25, "directly")?) as usize,
                        remainder: u64::from_le_bytes(take(body, 33, "remainder")?) as usize,
                        degraded: u64::from_le_bytes(take(body, 41, "degraded")?) as usize,
                        fully_eclipsed: u64::from_le_bytes(take(body, 49, "fully")?) as usize,
                        mean_peer_loss: f64::from_bits(u64::from_le_bytes(take(body, 57, "loss")?)),
                    }),
                    _ => return Err("bad cascade flag".to_string()),
                };
                Ok(Answer::Eclipse(EclipseAnswer {
                    prefixes_hijacked: u32::from_le_bytes(take(body, 0, "prefixes_hijacked")?),
                    isolated: u32::from_le_bytes(take(body, 4, "isolated")?),
                    fraction_of_as: f64::from_bits(u64::from_le_bytes(take(body, 8, "fraction")?)),
                    hash_share: f64::from_bits(u64::from_le_bytes(take(body, 16, "hash")?)),
                    cascade,
                }))
            }
            TAG_MIN_TIMING => {
                let raw = i64::from_le_bytes(take(body, 8, "t_secs")?);
                Ok(Answer::MinTiming(MinTimingAnswer {
                    m: u64::from_le_bytes(take(body, 0, "m")?),
                    t_secs: if raw < 0 { None } else { Some(raw as u64) },
                }))
            }
            other => Err(format!("unknown answer tag {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Query> {
        vec![
            Query::PartitionCost { target_as: 24940 },
            Query::BlockawareTradeoff {
                threshold_secs: 600,
                lambda: 1.0,
            },
            Query::Eclipse {
                target_as: 16276,
                prefixes: 15,
                cascade: true,
            },
            Query::Eclipse {
                target_as: 16276,
                prefixes: 15,
                cascade: false,
            },
            Query::MinTiming {
                min_blocks: 2,
                window_samples: 5,
                lambda: 0.8,
            },
        ]
    }

    #[test]
    fn queries_round_trip() {
        for q in samples() {
            let bytes = q.encode();
            assert_eq!(Query::decode(&bytes).unwrap(), q, "{q:?}");
        }
    }

    #[test]
    fn negative_zero_lambda_param_encodes_canonically() {
        let a = Query::BlockawareTradeoff {
            threshold_secs: 600,
            lambda: 1.0,
        };
        // Same λ through a -0.0-polluted computation still keys equal.
        let b = Query::BlockawareTradeoff {
            threshold_secs: 600,
            lambda: 1.0 * (0.0 + 1.0),
        };
        assert_eq!(a.encode(), b.encode());
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_eq!(
            canonical_f64_bits(f64::from_bits(0x7ff8_0000_0000_0001)),
            canonical_f64_bits(f64::NAN)
        );
    }

    #[test]
    fn malformed_queries_are_rejected() {
        assert!(Query::decode(&[]).is_err());
        assert!(Query::decode(&[9, 0, 0, 0, 0]).is_err()); // unknown tag
        assert!(Query::decode(&[TAG_PARTITION_COST, 1, 2]).is_err()); // short
        let mut extra = Query::PartitionCost { target_as: 1 }.encode();
        extra.push(0);
        assert!(Query::decode(&extra).is_err()); // trailing bytes
        let mut bad_flag = Query::Eclipse {
            target_as: 1,
            prefixes: 1,
            cascade: false,
        }
        .encode();
        *bad_flag.last_mut().unwrap() = 7;
        assert!(Query::decode(&bad_flag).is_err());
        // Non-positive λ.
        let mut q = Query::BlockawareTradeoff {
            threshold_secs: 1,
            lambda: 1.0,
        }
        .encode();
        q.truncate(9);
        q.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(Query::decode(&q).is_err());
    }

    #[test]
    fn answers_round_trip() {
        let answers = vec![
            Answer::PartitionCost(PartitionCostAnswer {
                members: 120,
                prefixes_total: 51,
                prefixes_50: Some(9),
                prefixes_90: None,
                hash_share: 0.0575,
            }),
            Answer::Blockaware(BlockawareAnswer {
                threshold_secs: 600,
                detection_delay_secs: 600,
                false_alarm_rate: (-1.0f64).exp(),
            }),
            Answer::Eclipse(EclipseAnswer {
                prefixes_hijacked: 15,
                isolated: 48,
                fraction_of_as: 0.52,
                hash_share: 0.0,
                cascade: Some(CascadeReport {
                    directly_isolated: 48,
                    remainder: 44,
                    degraded: 3,
                    fully_eclipsed: 0,
                    mean_peer_loss: 0.21,
                }),
            }),
            Answer::Eclipse(EclipseAnswer {
                prefixes_hijacked: 0,
                isolated: 0,
                fraction_of_as: 0.0,
                hash_share: 0.0,
                cascade: None,
            }),
            Answer::MinTiming(MinTimingAnswer {
                m: 500,
                t_secs: Some(589),
            }),
            Answer::MinTiming(MinTimingAnswer { m: 0, t_secs: None }),
        ];
        for a in answers {
            assert_eq!(Answer::decode(&a.encode()).unwrap(), a, "{a:?}");
        }
    }
}
