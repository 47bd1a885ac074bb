//! Decoders for the `--trace` exports: the drive's JSONL event stream
//! ([`TraceEvent::to_json`]) and the causal span export
//! ([`Span::to_json`]). Both put one flat JSON object on each line.
//!
//! Lines are read with [`crate::manifest::json`], the workspace's one JSON
//! reader; the lower crates only write. A line is accepted only if it is
//! one object whose values are all strings, numbers or booleans, and every
//! field a record needs is present with the right type: the first problem
//! found comes back as a description.

use crate::manifest::json::{self, Value};
use sim_disk::request::Op;
use sim_disk::trace::TraceEvent;
use std::collections::BTreeMap;
use traxtent::obs::span::Span;

/// The fields of one flat JSONL object.
struct Fields(BTreeMap<String, Value>);

impl Fields {
    fn parse(line: &str) -> Result<Fields, String> {
        let Value::Obj(map) = json::parse(line)? else {
            return Err("not a JSON object".into());
        };
        if map
            .values()
            .any(|v| matches!(v, Value::Obj(_) | Value::Arr(_)))
        {
            return Err("nested value in a flat JSONL object".into());
        }
        Ok(Fields(map))
    }

    fn get(&self, key: &str) -> Result<&Value, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.num(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    }

    fn text(&self, key: &str) -> Result<String, String> {
        self.get(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field `{key}` is not a string"))
    }

    fn boolean(&self, key: &str) -> Result<bool, String> {
        self.get(key)?
            .as_bool()
            .ok_or_else(|| format!("field `{key}` is not a boolean"))
    }

    fn op(&self, key: &str) -> Result<Op, String> {
        match self.text(key)?.as_str() {
            "read" => Ok(Op::Read),
            "write" => Ok(Op::Write),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Decodes one line written by [`TraceEvent::to_json`].
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let f = Fields::parse(line)?;
    let ev = f.text("ev")?;
    Ok(match ev.as_str() {
        "issue" => TraceEvent::Issue {
            req: f.num("req")?,
            t: f.num("t")?,
            op: f.op("op")?,
            lbn: f.num("lbn")?,
            len: f.num("len")?,
        },
        "queue" => TraceEvent::Queue {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
        },
        "seek" => TraceEvent::Seek {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
            from_cyl: f.u32("from_cyl")?,
            to_cyl: f.u32("to_cyl")?,
        },
        "head_switch" => TraceEvent::HeadSwitch {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
        },
        "settle" => TraceEvent::Settle {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
        },
        "rot_wait" => TraceEvent::RotWait {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
            track: f.u32("track")?,
        },
        "media" => TraceEvent::Media {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
            track: f.u32("track")?,
            sectors: f.num("sectors")?,
        },
        "cache_hit" => TraceEvent::CacheHit {
            req: f.num("req")?,
            t: f.num("t")?,
            lbn: f.num("lbn")?,
            len: f.num("len")?,
        },
        "cache_fill" => TraceEvent::CacheFill {
            req: f.num("req")?,
            t: f.num("t")?,
            start: f.num("start")?,
            end: f.num("end")?,
        },
        "bus" => TraceEvent::Bus {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
            bytes: f.num("bytes")?,
        },
        "fault" => TraceEvent::Fault {
            req: f.num("req")?,
            t: f.num("t")?,
            dur: f.num("dur")?,
            kind: f.text("kind")?,
            lbn: f.num("lbn")?,
        },
        "scsi_command" => TraceEvent::ScsiCommand {
            t: f.num("t")?,
            dur: f.num("dur")?,
            kind: f.text("kind")?,
        },
        "complete" => TraceEvent::Complete {
            req: f.num("req")?,
            t: f.num("t")?,
            op: f.op("op")?,
            lbn: f.num("lbn")?,
            len: f.num("len")?,
            cache_hit: f.boolean("cache_hit")?,
            queue: f.num("queue")?,
            overhead: f.num("overhead")?,
            seek: f.num("seek")?,
            head_switch: f.num("head_switch")?,
            rot_latency: f.num("rot_latency")?,
            media: f.num("media")?,
            bus: f.num("bus")?,
            write_settle: f.num("write_settle")?,
            response: f.num("response")?,
        },
        other => return Err(format!("unknown event `{other}`")),
    })
}

/// Decodes one line written by [`Span::to_json`]. A span id of 0 is
/// rejected: 0 means "no parent" and never names a span.
pub fn parse_span(line: &str) -> Result<Span, String> {
    let f = Fields::parse(line)?;
    let span = Span {
        name: f.text("span")?,
        id: f.num("id")?,
        parent: f.num("parent")?,
        track: f.u32("track")?,
        start_ns: f.num("start")?,
        end_ns: f.num("end")?,
        attrs: f.text("attrs")?,
    };
    if span.id == 0 {
        return Err("span id must be nonzero".to_string());
    }
    Ok(span)
}

/// The kind tag of an otherwise well-formed flat JSONL line, whether or
/// not this build recognizes it.
///
/// [`parse_event`] rejects event kinds introduced after this version, and
/// rejects span records outright. Report tooling uses this helper to tell
/// a well-formed line of an unrecognized kind — count it and move on —
/// from genuine corruption, which still marks the trace as truncated.
/// Returns the `ev` field's value, `span:<name>` for span records, and
/// `None` when the line is not a flat object carrying either tag.
pub fn peek_event_name(line: &str) -> Option<String> {
    let f = Fields::parse(line).ok()?;
    f.text("ev")
        .ok()
        .or_else(|| f.text("span").ok().map(|name| format!("span:{name}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::disk::{Disk, Request};
    use sim_disk::fault::FaultConfig;
    use sim_disk::trace::{JsonlSink, MemorySink, Tracer};
    use sim_disk::{models, SimTime};
    use std::sync::{Arc, Mutex};
    use traxtent::obs::span::{derive_id, kind};

    /// One of every [`TraceEvent`] variant.
    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Issue {
                req: 1,
                t: 2,
                op: Op::Read,
                lbn: 3,
                len: 4,
            },
            TraceEvent::Queue {
                req: 1,
                t: 2,
                dur: 3,
            },
            TraceEvent::Seek {
                req: 1,
                t: 5,
                dur: 6,
                from_cyl: 7,
                to_cyl: u32::MAX,
            },
            TraceEvent::HeadSwitch {
                req: 1,
                t: 9,
                dur: 10,
            },
            TraceEvent::Settle {
                req: 1,
                t: 11,
                dur: 12,
            },
            TraceEvent::RotWait {
                req: 1,
                t: 13,
                dur: 14,
                track: 15,
            },
            TraceEvent::Media {
                req: 1,
                t: 16,
                dur: 17,
                track: 18,
                sectors: 19,
            },
            TraceEvent::CacheHit {
                req: 1,
                t: 20,
                lbn: 21,
                len: 22,
            },
            TraceEvent::CacheFill {
                req: 1,
                t: 23,
                start: 24,
                end: 25,
            },
            TraceEvent::Bus {
                req: 1,
                t: 26,
                dur: 27,
                bytes: 28,
            },
            TraceEvent::Fault {
                req: 1,
                t: 28,
                dur: 29,
                kind: "media_retry".into(),
                lbn: 30,
            },
            TraceEvent::ScsiCommand {
                t: 29,
                dur: 30,
                kind: "mode_sense".into(),
            },
            TraceEvent::Complete {
                req: u64::MAX,
                t: 31,
                op: Op::Write,
                lbn: 32,
                len: 33,
                cache_hit: true,
                queue: 34,
                overhead: 35,
                seek: 36,
                head_switch: 37,
                rot_latency: 38,
                media: 39,
                bus: 40,
                write_settle: 41,
                response: 42,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for e in samples() {
            let line = e.to_json();
            let back = parse_event(&line).unwrap_or_else(|err| {
                panic!("parse of {line} failed: {err}");
            });
            assert_eq!(e, back, "line {line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (line, why) in [
            ("", "empty"),
            ("not json", "not JSON"),
            ("[1, 2]", "not an object"),
            ("{}", "no kind"),
            ("{\"ev\":\"nope\"}", "unknown kind"),
            ("{\"ev\":\"queue\",\"req\":1}", "missing fields"),
            (
                "{\"ev\":\"queue\",\"req\":-1,\"t\":0,\"dur\":0}",
                "negative",
            ),
            (
                "{\"ev\":\"queue\",\"req\":1.5,\"t\":0,\"dur\":0}",
                "fraction",
            ),
            (
                "{\"ev\":\"queue\",\"req\":\"1\",\"t\":0,\"dur\":0}",
                "string for a number",
            ),
            (
                "{\"ev\":\"queue\",\"req\":{},\"t\":0,\"dur\":0}",
                "nested value",
            ),
            (
                "{\"ev\":\"issue\",\"req\":1,\"t\":2,\"op\":\"erase\",\"lbn\":3,\"len\":4}",
                "bad op",
            ),
            (
                "{\"ev\":\"rot_wait\",\"req\":1,\"t\":2,\"dur\":3,\"track\":4294967296}",
                "track above u32",
            ),
            ("{\"ev\":\"queue\",\"req\":1,\"t\":0,\"dur\":0", "truncated"),
        ] {
            assert!(parse_event(line).is_err(), "{why}: {line}");
        }
        let complete = samples().pop().unwrap().to_json();
        let stringly = complete.replace("\"cache_hit\":true", "\"cache_hit\":\"true\"");
        assert!(parse_event(&stringly).is_err(), "string for a boolean");
    }

    #[test]
    fn peek_event_name_reads_known_unknown_and_span_kinds() {
        assert_eq!(
            peek_event_name(r#"{"ev": "seek", "req": 1, "t": 2, "dur": 3, "cyls": 4}"#).as_deref(),
            Some("seek")
        );
        assert_eq!(
            peek_event_name(r#"{"ev": "from_the_future", "req": 1}"#).as_deref(),
            Some("from_the_future"),
            "unknown kinds are still identifiable"
        );
        assert_eq!(
            peek_event_name(
                r#"{"span":"vol_cmd","id":7,"parent":1,"track":2,"start":0,"end":9,"attrs":""}"#
            )
            .as_deref(),
            Some("span:vol_cmd")
        );
        assert_eq!(peek_event_name("garbage"), None);
        assert_eq!(peek_event_name(r#"{"ev": "se"#), None, "torn line");
        assert_eq!(
            peek_event_name(r#"{"req": 1, "t": 2}"#),
            None,
            "no kind tag"
        );
    }

    /// The JSONL file a traced drive writes decodes back to the events an
    /// in-memory sink saw for the same workload.
    #[test]
    fn jsonl_round_trip_preserves_the_stream() {
        let run = |tracer: Tracer| {
            let mut cfg = models::quantum_atlas_10k_ii();
            cfg.tracer = Some(tracer);
            let mut disk = Disk::new(cfg);
            let mut t = SimTime::ZERO;
            for i in 0..100u64 {
                let lbn = (i * 1_234_567) % 4_000_000;
                let c = disk.service(Request::read(lbn, 64 + (i % 512)), t);
                t = c.completion;
            }
        };
        let mem = Arc::new(Mutex::new(MemorySink::new()));
        run(Tracer::new(mem.clone()));
        let expected = mem.lock().unwrap().take_events();

        let path =
            std::env::temp_dir().join(format!("traxtent-bench-trace-{}.jsonl", std::process::id()));
        let jsonl = JsonlSink::create(&path).expect("temp trace file");
        run(Tracer::from_sink(jsonl)); // dropping the drive flushes the file
        let text = std::fs::read_to_string(&path).expect("trace file");
        std::fs::remove_file(&path).ok();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| parse_event(l).expect("valid event"))
            .collect();
        assert!(!parsed.is_empty());
        assert_eq!(parsed, expected);
    }

    /// Fault events — the only variant whose producer sits behind the
    /// fault layer — survive the round trip too.
    #[test]
    fn fault_events_round_trip() {
        let mem = Arc::new(Mutex::new(MemorySink::new()));
        let mut cfg = models::small_test_disk();
        cfg.fault = FaultConfig::parse_spec("media=200000,transient=200000,grown=200000")
            .expect("valid fault spec");
        cfg.tracer = Some(Tracer::new(mem.clone()));
        let mut disk = Disk::new(cfg);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let c = disk.service(Request::write((i * 7919) % 80_000, 8), t);
            t = c.completion;
        }
        let events = mem.lock().unwrap().take_events();
        let faults: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .collect();
        assert!(!faults.is_empty(), "the spec must inject faults");
        for e in faults {
            assert_eq!(&parse_event(&e.to_json()).expect("fault event parses"), e);
        }
    }

    #[test]
    fn span_jsonl_round_trip() {
        let mut s = Span::new(
            derive_id(1, kind::VOL_CMD, 9, 2),
            42,
            "vol_cmd",
            3,
            100,
            250,
        );
        s.push_attr("mode", "rmw");
        assert_eq!(parse_span(&s.to_json()).unwrap(), s);

        // Names and attributes are escaped on the way out and unescaped
        // on the way back, so quotes and backslashes survive.
        let mut odd = Span::new(u64::MAX, u64::MAX - 1, "a\"b\\c", u32::MAX, 0, u64::MAX);
        odd.push_attr("path", "C:\\dir\\\"x\"");
        assert_eq!(parse_span(&odd.to_json()).unwrap(), odd);
    }

    #[test]
    fn span_parse_rejects_malformed_lines() {
        let line = |id: &str, track: &str| {
            format!(
                "{{\"span\":\"x\",\"id\":{id},\"parent\":0,\"track\":{track},\"start\":0,\"end\":0,\"attrs\":\"\"}}"
            )
        };
        assert!(parse_span(&line("1", "0")).is_ok(), "the well-formed line");
        assert!(parse_span("not json").is_err());
        assert!(parse_span("[]").is_err(), "not an object");
        assert!(parse_span("{\"span\":\"x\"}").is_err(), "missing fields");
        assert!(parse_span(&line("0", "0")).is_err(), "zero id");
        assert!(
            parse_span(&line("\"1\"", "0")).is_err(),
            "id must be numeric"
        );
        assert!(
            parse_span(&line("1", "4294967296")).is_err(),
            "track above u32"
        );
        assert!(
            parse_span(&line("1", "0").replace("\"attrs\":\"\"", "\"attrs\":7")).is_err(),
            "attrs must be a string"
        );
    }
}
