//! JSON text output. Parsing goes through `tls_sim::parse_json`, the
//! repository's one JSON reader.

use tls_sim::Json;

/// Quote and escape `s` as a JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a parsed value back to JSON text.
pub fn render(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => string(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(members) => format!(
            "{{{}}}",
            members
                .iter()
                .map(|(k, v)| format!("{}:{}", string(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_text_parses_back_to_the_same_value() {
        let text = r#"{"a":[1,2.5,-3e-7],"b":"q\"uo\\te\n","c":null,"d":true,"e":{}}"#;
        let j = tls_sim::parse_json(text).expect("parses");
        assert_eq!(tls_sim::parse_json(&render(&j)).expect("round trip"), j);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }
}
