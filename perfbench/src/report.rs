//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, plus a minimal parser so tests can read it back.

#[cfg(test)]
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the report as one line of JSON. Values keep every digit (`{}`
/// on `f64` is the shortest text that parses back to the same number).
pub fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                m.value,
                escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A parsed JSON value (just what the report uses).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(e as char);
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if map.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key `{k}`"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
        }
    }
}

/// Parses a rendered report back, requiring exactly the four keys.
#[cfg(test)]
pub fn parse(line: &str) -> Result<Report, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    let Json::Obj(top) = p.value()? else {
        return Err("report is not an object".to_string());
    };
    p.ws();
    if p.i != line.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let count = |k: &str| match &top[k] {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        other => Err(format!("`{k}` is not a whole number: {other:?}")),
    };
    let Json::Bool(correct) = top["correct"] else {
        return Err("`correct` is not a boolean".to_string());
    };
    let Json::Obj(ms) = &top["metrics"] else {
        return Err("`metrics` is not an object".to_string());
    };
    let mut metrics = Vec::new();
    for (name, v) in ms {
        let Json::Obj(m) = v else {
            return Err(format!("metric `{name}` is not an object"));
        };
        match (m.get("value"), m.get("unit"), m.len()) {
            (Some(Json::Num(value)), Some(Json::Str(unit)), 2) => {
                metrics.push(Metric::new(name, *value, unit))
            }
            _ => return Err(format!("metric `{name}` needs exactly `value` and `unit`")),
        }
    }
    Ok(Report {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_report_parses_back_to_the_same_values() {
        let report = Report {
            correct: false,
            attempted: 1234,
            failed: 7,
            metrics: vec![
                Metric::new("a.tiny", 1.234_567_890_123_456_7e-9, "s"),
                Metric::new("b.big", 98_765_432.123_456_78, "1/s"),
                Metric::new("c.third", 1.0 / 3.0, "MiB"),
                Metric::new("d.zero", 0.0, "count"),
            ],
        };
        let line = render(&report);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).expect("own output parses"), report);
    }

    #[test]
    fn parse_rejects_extra_or_missing_keys() {
        assert!(parse("{\"correct\": true, \"attempted\": 1, \"failed\": 0}").is_err());
        assert!(parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}"
        )
        .is_err());
        assert!(
            parse("{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}")
                .is_err()
        );
    }
}
