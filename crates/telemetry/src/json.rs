//! A minimal JSON parser — just enough to validate the exporters'
//! output and the checked-in JSONL schema (the build environment has no
//! serde). Parses the full JSON grammar into an order-preserving tree;
//! numbers are `f64`. Nesting is capped at [`MAX_DEPTH`] so hostile input
//! cannot exhaust the stack, and a number must parse to a finite value:
//! JSON cannot write infinity, so accepting `1e999` would break the
//! parse–serialize round trip.

/// The deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object member by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The JSON type name used in validation messages and the schema
    /// file: `null`, `bool`, `number`, `string`, `array`, `object`.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input, trailing
/// garbage, nesting deeper than [`MAX_DEPTH`], or a number that does not
/// parse to a finite value.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            char::from(ch),
            *pos,
            bytes.get(*pos).map(|&b| char::from(b))
        ))
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let open = matches!(bytes.get(*pos), Some(b'{' | b'['));
    if open && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(Json::Num(value)),
        _ => Err(format!("bad number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Escapes `s` as the body of a JSON string literal (no surrounding
/// quotes). Shared by every exporter so output is uniformly valid.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number: shortest-roundtrip formatting for
/// finite values (deterministic across runs and platforms), `null` for
/// NaN/infinity, which JSON cannot express.
#[must_use]
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The record kinds of a validation schema
/// `{"types": {"<kind>": {"<field>": "<type>", ...}, ...}}`, where a
/// type is a [`Json::type_name`] or several joined by `|`. The JSONL and
/// incident validators both read their schema here.
pub(crate) fn schema_types(schema_text: &str) -> Result<Vec<(String, Json)>, String> {
    let schema = parse(schema_text).map_err(|e| format!("schema: {e}"))?;
    match schema.get("types") {
        Some(Json::Obj(types)) => Ok(types.clone()),
        Some(_) => Err("schema: \"types\" must be an object".into()),
        None => Err("schema: missing \"types\"".into()),
    }
}

/// Checks `record` against the `kind` entry of [`schema_types`]: every
/// field the entry lists must be present with one of the JSON types it
/// names. The JSONL and incident validators both check records here.
pub(crate) fn check_record(
    record: &Json,
    kind: &str,
    types: &[(String, Json)],
) -> Result<(), String> {
    let Some((_, fields)) = types.iter().find(|(name, _)| name == kind) else {
        return Err(format!("schema has no record type {kind:?}"));
    };
    let Json::Obj(fields) = fields else {
        return Err(format!("schema: type {kind:?} must map to an object"));
    };
    for (field, want) in fields {
        let want = want
            .as_str()
            .ok_or_else(|| format!("schema: field {field:?} type must be a string"))?;
        let got = record
            .get(field)
            .ok_or_else(|| format!("{kind} record missing field {field:?}"))?;
        if !want.split('|').any(|w| got.type_name() == w) {
            return Err(format!(
                "field {field:?} of {kind} is {}, schema requires {want}",
                got.type_name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let doc = parse(r#"{"a": [1, 2], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(doc.type_name(), "object");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err(), "trailing garbage");
        assert!(parse("\"unterminated").is_err());
    }

    /// Hostile nesting is an error, not a stack overflow: 100,000 open
    /// brackets or objects fail at the cap, while the cap itself parses.
    #[test]
    fn nesting_is_capped() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).expect_err("too deep");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap).is_err());
    }

    /// A number that overflows to infinity has no JSON spelling, so it
    /// is rejected rather than parsed to a value `num` renders as null.
    #[test]
    fn numbers_must_be_finite() {
        for bad in ["1e999", "-1e999", "[1, 2e400]"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f λ";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn num_renders_json_safe() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        // Shortest-roundtrip output must re-parse to the same value.
        for v in [1e-7, 12.34567, 1e300, 0.1 + 0.2] {
            assert_eq!(parse(&num(v)).unwrap(), Json::Num(v));
        }
    }
}
