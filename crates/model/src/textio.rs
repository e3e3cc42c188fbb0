//! A plain-text instance format, for the CLI and golden tests.
//!
//! ```text
//! # rrs instance v1
//! delta 4
//! color 0 4          # color <id> <delay_bound>
//! color 1 32
//! arrive 0 1 24      # arrive <round> <color> <count>
//! arrive 4 0 3
//! ```
//!
//! Lines are independent; `#` starts a comment; blank lines are ignored.
//! Colors must be declared with consecutive ids starting at 0 before use.

use crate::color::{ColorId, ColorTable};
use crate::cost::{check_deadline, check_delta};
use crate::instance::Instance;
use crate::request::RequestSeq;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize an instance to the text format.
pub fn to_text(inst: &Instance) -> String {
    let mut out = String::from("# rrs instance v1\n");
    out.push_str(&format!("delta {}\n", inst.delta));
    for (c, d) in inst.colors.iter() {
        out.push_str(&format!("color {} {}\n", c.0, d));
    }
    for (round, req) in inst.requests.iter() {
        for &(c, n) in req.pairs() {
            out.push_str(&format!("arrive {} {} {}\n", round, c.0, n));
        }
    }
    out
}

/// Parse an instance from the text format.
pub fn from_text(text: &str) -> Result<Instance, ParseError> {
    let mut delta: Option<u64> = None;
    let mut colors = ColorTable::new();
    let mut requests = RequestSeq::new();

    let err = |line: usize, message: String| ParseError { line, message };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-blank line has a first token");
        let mut arg = |name: &str| -> Result<u64, ParseError> {
            parts
                .next()
                .ok_or_else(|| err(line_no, format!("missing {name}")))?
                .parse::<u64>()
                .map_err(|e| err(line_no, format!("bad {name}: {e}")))
        };
        match keyword {
            "delta" => {
                let v = check_delta(arg("delta value")?).map_err(|m| err(line_no, m))?;
                if delta.replace(v).is_some() {
                    return Err(err(line_no, "duplicate delta".into()));
                }
            }
            "color" => {
                let id = arg("color id")?;
                let bound = arg("delay bound")?;
                if id != colors.len() as u64 {
                    return Err(err(
                        line_no,
                        format!(
                            "color ids must be consecutive; expected {}, got {id}",
                            colors.len()
                        ),
                    ));
                }
                if bound == 0 {
                    return Err(err(line_no, "delay bound must be positive".into()));
                }
                colors.push(bound);
            }
            "arrive" => {
                let round = arg("round")?;
                let color = arg("color")?;
                let count = arg("count")?;
                let c = ColorId(
                    u32::try_from(color)
                        .map_err(|_| err(line_no, format!("color id {color} out of range")))?,
                );
                let Some(bound) = colors.try_delay_bound(c) else {
                    return Err(err(line_no, format!("undeclared color {color}")));
                };
                check_deadline(round, bound).map_err(|m| err(line_no, m))?;
                requests.add(round, c, count);
            }
            other => return Err(err(line_no, format!("unknown keyword '{other}'"))),
        }
        if parts.next().is_some() {
            return Err(err(line_no, "trailing tokens".into()));
        }
    }
    let delta = delta.ok_or_else(|| err(text.lines().count().max(1), "missing delta".into()))?;
    Ok(Instance::new(delta, colors, requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new(4);
        let c0 = b.color(4);
        let c1 = b.color(32);
        b.arrive(0, c1, 24).arrive(0, c0, 3).arrive(4, c0, 3);
        b.build()
    }

    #[test]
    fn round_trip() {
        let inst = sample();
        let text = to_text(&inst);
        let back = from_text(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# header\ndelta 2  # cost\n color 0 4 \n\narrive 0 0 1 # one job\n";
        let inst = from_text(text).unwrap();
        assert_eq!(inst.delta, 2);
        assert_eq!(inst.total_jobs(), 1);
    }

    #[test]
    fn missing_delta_rejected() {
        let e = from_text("color 0 4\n").unwrap_err();
        assert!(e.message.contains("missing delta"));
    }

    #[test]
    fn undeclared_color_rejected() {
        let e = from_text("delta 1\narrive 0 3 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn non_consecutive_color_ids_rejected() {
        let e = from_text("delta 1\ncolor 1 4\n").unwrap_err();
        assert!(e.message.contains("consecutive"));
    }

    #[test]
    fn duplicate_delta_rejected() {
        let e = from_text("delta 1\ndelta 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let e = from_text("delta 1 2\n").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn zero_bound_rejected() {
        let e = from_text("delta 1\ncolor 0 0\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn deadline_overflow_rejected() {
        let e = from_text("delta 2\ncolor 0 18446744073709551615\narrive 1 0 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("overflows"), "{e}");
    }

    #[test]
    fn deadline_of_u64_max_rejected() {
        let e = from_text("delta 1\ncolor 0 18446744073709551615\narrive 0 0 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("overflows the round counter"), "{e}");
        let last = from_text("delta 1\ncolor 0 18446744073709551614\narrive 0 0 1\n").unwrap();
        assert_eq!(last.horizon(), u64::MAX - 1);
    }

    #[test]
    fn delta_above_u32_max_rejected() {
        let e = from_text("\ndelta 18446744073709551615\ncolor 0 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds the maximum 4294967295"), "{e}");
        assert_eq!(from_text("delta 4294967295\n").unwrap().delta, u64::from(u32::MAX));
    }

    #[test]
    fn merges_repeated_arrivals() {
        let inst = from_text("delta 1\ncolor 0 2\narrive 0 0 1\narrive 0 0 2\n").unwrap();
        assert_eq!(inst.requests.at(0).count_of(ColorId(0)), 3);
    }
}
