//! The correctness oracle: truth worked out from the generated inputs
//! alone.
//!
//! The oracle reads the XML text the program is handed with its own small
//! reader (no archive, key or XML code of the program is involved) and
//! keeps, for every version, each record's key and a hash of its content
//! in a canonical form. From that it derives per-record presence sets,
//! record content at each version, and the keys alive in any window, and
//! checks every answer the program gives against them.
//!
//! The canonical form sorts an element's children: in the OMIM and
//! Swiss-Prot key specifications every element is keyed, so sibling order
//! carries no meaning and retrieved versions may list keyed siblings in
//! any order. Text and tags must match exactly.

use std::collections::BTreeMap;

use xarch::core::{ElementHistory, RangeEntry, TimeSet, VersionDelta};

/// A parsed element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elem {
    pub tag: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Elem(Elem),
    Text(String),
}

impl Elem {
    /// Text of the first child element named `tag`.
    pub fn child_text(&self, tag: &str) -> Option<String> {
        self.children.iter().find_map(|c| match c {
            Node::Elem(e) if e.tag == tag => Some(e.text()),
            _ => None,
        })
    }

    /// Concatenated text of the direct text children.
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|c| match c {
                Node::Text(t) => Some(t.as_str()),
                Node::Elem(_) => None,
            })
            .collect()
    }
}

/// Reads one XML document (elements, attributes, text, the five named
/// entities and numeric references; declarations and comments skipped).
pub fn parse_xml(input: &str) -> Result<Elem, String> {
    let mut r = Reader {
        s: input.as_bytes(),
        src: input,
        pos: 0,
    };
    r.skip_misc();
    let root = r.element()?;
    r.skip_misc();
    if r.pos != r.s.len() {
        return Err(format!("trailing content at byte {}", r.pos));
    }
    Ok(root)
}

struct Reader<'a> {
    s: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn starts(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn skip_past(&mut self, pat: &str) -> Result<(), String> {
        match self.src[self.pos..].find(pat) {
            Some(i) => {
                self.pos += i + pat.len();
                Ok(())
            }
            None => Err(format!("unterminated construct at byte {}", self.pos)),
        }
    }

    fn skip_misc(&mut self) {
        loop {
            while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            let close = if self.starts("<?") {
                "?>"
            } else if self.starts("<!--") {
                "-->"
            } else {
                return;
            };
            if self.skip_past(close).is_err() {
                self.pos = self.s.len();
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, String> {
        let start = self.pos;
        while self.pos < self.s.len()
            && !self.s[self.pos].is_ascii_whitespace()
            && !matches!(self.s[self.pos], b'>' | b'/' | b'=')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a name at byte {start}"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn element(&mut self) -> Result<Elem, String> {
        self.expect(b'<')?;
        let tag = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.s.get(self.pos) {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(Elem {
                        tag,
                        attrs,
                        children: Vec::new(),
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = *self.s.get(self.pos).ok_or("eof in attribute")?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(format!("unquoted attribute at byte {}", self.pos));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.s.len() && self.s[self.pos] != quote {
                        self.pos += 1;
                    }
                    let value = unescape(&self.src[start..self.pos])?;
                    self.expect(quote)?;
                    attrs.push((name, value));
                }
                None => return Err("eof inside a start tag".into()),
            }
        }
        let mut children = Vec::new();
        loop {
            if self.pos >= self.s.len() {
                return Err(format!("element <{tag}> is not closed"));
            }
            if self.starts("</") {
                self.pos += 2;
                let end = self.name()?;
                if end != tag {
                    return Err(format!("</{end}> closes <{tag}>"));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(Elem {
                    tag,
                    attrs,
                    children,
                });
            }
            if self.starts("<!--") || self.starts("<?") {
                let close = if self.starts("<?") { "?>" } else { "-->" };
                self.skip_past(close)?;
            } else if self.s[self.pos] == b'<' {
                children.push(Node::Elem(self.element()?));
            } else {
                let start = self.pos;
                while self.pos < self.s.len() && self.s[self.pos] != b'<' {
                    self.pos += 1;
                }
                children.push(Node::Text(unescape(&self.src[start..self.pos])?));
            }
        }
    }
}

fn unescape(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        let semi = rest[i..].find(';').ok_or("unterminated entity")? + i;
        let ent = &rest[i + 1..semi];
        let ch = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = if let Some(hex) = ent.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = ent.strip_prefix('#') {
                    dec.parse().ok()
                } else {
                    None
                };
                code.and_then(char::from_u32)
                    .ok_or_else(|| format!("unknown entity &{ent};"))?
            }
        };
        out.push(ch);
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// The canonical text of an element: tag, sorted attributes, and the
/// canonical texts of its children in sorted order.
pub fn canonical(e: &Elem) -> String {
    let mut out = String::new();
    write_canonical(e, &mut out);
    out
}

fn write_canonical(e: &Elem, out: &mut String) {
    out.push('<');
    out.push_str(&e.tag);
    let mut attrs = e.attrs.clone();
    attrs.sort();
    for (k, v) in &attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(v, out);
        out.push('"');
    }
    out.push('>');
    let mut kids: Vec<String> = e
        .children
        .iter()
        .map(|c| match c {
            Node::Elem(ce) => canonical(ce),
            Node::Text(t) => {
                let mut s = String::new();
                push_escaped(t, &mut s);
                s
            }
        })
        .collect();
    kids.sort();
    for k in kids {
        out.push_str(&k);
    }
    out.push_str("</");
    out.push_str(&e.tag);
    out.push('>');
}

fn push_escaped(t: &str, out: &mut String) {
    for c in t.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// 64-bit FNV-1a: stable across runs and platforms.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Content hash of an element in canonical form.
pub fn content_hash(e: &Elem) -> u64 {
    fnv(canonical(e).as_bytes())
}

/// Records of one whole version: key → content hash.
pub type RecordMap = BTreeMap<String, u64>;

/// Ground truth for one generated version sequence.
#[derive(Debug)]
pub struct Oracle {
    root_tag: String,
    record_tag: String,
    key_tag: String,
    /// `versions[v - 1]`: the records of version `v`.
    versions: Vec<RecordMap>,
    /// Every key ever present, with the versions it is present in.
    presence: BTreeMap<String, Vec<u32>>,
}

impl Oracle {
    /// Builds the oracle from the XML text of each version, in order.
    pub fn build(
        root_tag: &str,
        record_tag: &str,
        key_tag: &str,
        xml_versions: &[String],
    ) -> Result<Oracle, String> {
        let mut o = Oracle {
            root_tag: root_tag.into(),
            record_tag: record_tag.into(),
            key_tag: key_tag.into(),
            versions: Vec::new(),
            presence: BTreeMap::new(),
        };
        for (i, xml) in xml_versions.iter().enumerate() {
            let map = o
                .records(xml)
                .map_err(|e| format!("input version {}: {e}", i + 1))?;
            let v = u32::try_from(i + 1).map_err(|_| "too many versions")?;
            for key in map.keys() {
                o.presence.entry(key.clone()).or_default().push(v);
            }
            o.versions.push(map);
        }
        Ok(o)
    }

    /// Number of versions.
    pub fn latest(&self) -> u32 {
        u32::try_from(self.versions.len()).unwrap_or(u32::MAX)
    }

    /// Every key ever present, in key order.
    pub fn keys(&self) -> Vec<String> {
        self.presence.keys().cloned().collect()
    }

    /// Key → content hash for a whole version's XML text.
    pub fn records(&self, xml: &str) -> Result<RecordMap, String> {
        let root = parse_xml(xml)?;
        if root.tag != self.root_tag {
            return Err(format!("root is <{}>, not <{}>", root.tag, self.root_tag));
        }
        let mut map = RecordMap::new();
        for child in &root.children {
            let Node::Elem(rec) = child else {
                return Err("text directly under the root".into());
            };
            if rec.tag != self.record_tag {
                return Err(format!("unexpected <{}> under the root", rec.tag));
            }
            let key = rec
                .child_text(&self.key_tag)
                .ok_or_else(|| format!("a record has no <{}>", self.key_tag))?;
            if map.insert(key.clone(), content_hash(rec)).is_some() {
                return Err(format!("record {key} appears twice"));
            }
        }
        Ok(map)
    }

    fn version(&self, v: u32) -> Option<&RecordMap> {
        self.versions.get((v as usize).checked_sub(1)?)
    }

    fn content(&self, key: &str, v: u32) -> Option<u64> {
        self.version(v).and_then(|m| m.get(key)).copied()
    }

    /// A whole retrieved version must equal its input record by record.
    pub fn check_version(&self, v: u32, xml: &str) -> Result<(), String> {
        let want = self
            .version(v)
            .ok_or(format!("version {v} was never input"))?;
        let got = self.records(xml)?;
        compare_maps(want, &got).map_err(|e| format!("version {v}: {e}"))
    }

    /// `history` must equal the record's presence set.
    pub fn check_history(&self, key: &str, got: Option<&TimeSet>) -> Result<(), String> {
        let want = self.presence.get(key).map(|vs| intervals(vs));
        let got = got.map(|t| t.intervals().to_vec());
        if want == got {
            Ok(())
        } else {
            Err(format!("history of {key}: want {want:?}, got {got:?}"))
        }
    }

    /// `as_of` must return the record's input content at `v`, or nothing
    /// when the record is absent at `v`.
    pub fn check_as_of(&self, key: &str, v: u32, got: Option<&str>) -> Result<(), String> {
        let want = self.content(key, v);
        let got = match got {
            Some(xml) => Some(self.record_hash(xml)?),
            None => None,
        };
        if want == got {
            Ok(())
        } else {
            Err(format!("as_of({key}, {v}) does not match the input"))
        }
    }

    fn record_hash(&self, xml: &str) -> Result<u64, String> {
        let rec = parse_xml(xml)?;
        if rec.tag != self.record_tag {
            return Err(format!("answer is <{}>, not a record", rec.tag));
        }
        Ok(content_hash(&rec))
    }

    /// `history_values`: the presence set, plus each distinct content with
    /// the versions it was held in.
    pub fn check_history_values(
        &self,
        key: &str,
        got: Option<&ElementHistory>,
    ) -> Result<(), String> {
        let Some(vs) = self.presence.get(key) else {
            return match got {
                None => Ok(()),
                Some(_) => Err(format!("history_values({key}) for a key never input")),
            };
        };
        let got = got.ok_or(format!("history_values({key}) is empty"))?;
        self.check_history(key, Some(&got.existence))?;
        let mut want: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &v in vs {
            if let Some(h) = self.content(key, v) {
                want.entry(h).or_default().push(v);
            }
        }
        let mut have: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (time, xml) in &got.values {
            have.entry(self.record_hash(xml)?)
                .or_default()
                .extend(time.versions());
        }
        for versions in have.values_mut() {
            versions.sort_unstable();
            versions.dedup();
        }
        if want == have {
            Ok(())
        } else {
            Err(format!(
                "history_values({key}) contents do not match the input"
            ))
        }
    }

    /// `diff`: presence at both ends, and "unchanged" exactly when the
    /// input record is the same at both versions.
    pub fn check_diff(
        &self,
        key: &str,
        v1: u32,
        v2: u32,
        got: &VersionDelta,
    ) -> Result<(), String> {
        let (a, b) = (self.content(key, v1), self.content(key, v2));
        let present = (a.is_some(), b.is_some());
        let same = a == b;
        let consistent = match present {
            (false, false) => got.removed == 0 && got.added == 0,
            (false, true) => got.removed == 0 && got.added > 0,
            (true, false) => got.removed > 0 && got.added == 0,
            (true, true) => same == (got.removed == 0 && got.added == 0),
        };
        if got.present == present
            && got.is_same() == same
            && consistent
            && (got.v1, got.v2) == (v1, v2)
        {
            Ok(())
        } else {
            Err(format!("diff({key}, {v1}, {v2}) does not match the input"))
        }
    }

    /// `range(lo..=hi)` over the records: exactly the keys alive in the
    /// window, each with its presence set clamped to the window.
    pub fn check_range(&self, lo: u32, hi: u32, got: &[RangeEntry]) -> Result<(), String> {
        let mut want: BTreeMap<&str, Vec<(u32, u32)>> = BTreeMap::new();
        for (key, vs) in &self.presence {
            let inside: Vec<u32> = vs
                .iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect();
            if !inside.is_empty() {
                want.insert(key, intervals(&inside));
            }
        }
        let mut have: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
        for e in got {
            if e.step.tag != self.record_tag
                || e.step.parts.len() != 1
                || e.step.parts[0].0 != self.key_tag
            {
                return Err(format!(
                    "range({lo}, {hi}) returned a step that is not a record key"
                ));
            }
            let key = parse_xml(&e.step.parts[0].1)?.text();
            if have
                .insert(key.clone(), e.time.intervals().to_vec())
                .is_some()
            {
                return Err(format!("range({lo}, {hi}) lists {key} twice"));
            }
        }
        let same = want.len() == have.len()
            && want
                .iter()
                .all(|(k, iv)| have.get(*k).is_some_and(|h| h == iv));
        if same {
            Ok(())
        } else {
            Err(format!(
                "range({lo}, {hi}): want {} keys, got {} or different lifetimes",
                want.len(),
                have.len()
            ))
        }
    }
}

fn compare_maps(want: &RecordMap, got: &RecordMap) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} records, want {}", got.len(), want.len()));
    }
    for (key, h) in want {
        match got.get(key) {
            None => return Err(format!("record {key} is missing")),
            Some(g) if g != h => return Err(format!("record {key} differs")),
            Some(_) => {}
        }
    }
    Ok(())
}

/// Sorted versions → maximal runs of consecutive versions.
pub fn intervals(versions: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &v in versions {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == v => *hi = v,
            _ => out.push((v, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: &str = "<ROOT><Record><Num>1</Num><Title>A &amp; B</Title>\
        <Contributors><Name>x</Name></Contributors><Contributors><Name>y</Name></Contributors>\
        </Record><Record><Num>2</Num><Title>C</Title></Record></ROOT>";

    fn oracle(versions: &[&str]) -> Oracle {
        let xml: Vec<String> = versions.iter().map(|s| s.to_string()).collect();
        Oracle::build("ROOT", "Record", "Num", &xml).unwrap()
    }

    #[test]
    fn by_key_comparison_accepts_reordered_keyed_siblings() {
        let o = oracle(&[V1]);
        // records swapped, and the two Contributors of record 1 swapped
        let reordered =
            "<?xml version=\"1.0\"?><ROOT><Record><Num>2</Num><Title>C</Title></Record>\
            <Record><Title>A &amp; B</Title><Num>1</Num>\
            <Contributors><Name>y</Name></Contributors><Contributors><Name>x</Name></Contributors>\
            </Record></ROOT>";
        assert_eq!(o.check_version(1, reordered), Ok(()));
        assert_eq!(o.check_version(1, V1), Ok(()));
    }

    #[test]
    fn by_key_comparison_rejects_changed_text_and_missing_records() {
        let o = oracle(&[V1]);
        let changed = V1.replace("<Name>y</Name>", "<Name>z</Name>");
        assert!(o.check_version(1, &changed).is_err());
        let escaped = V1.replace("A &amp; B", "A &amp;B");
        assert!(o.check_version(1, &escaped).is_err());
        let missing = "<ROOT><Record><Num>2</Num><Title>C</Title></Record></ROOT>";
        assert!(o.check_version(1, missing).is_err());
        assert!(o.check_version(2, V1).is_err(), "never-input version");
        assert!(o.check_version(1, "<ROOT><Record>").is_err(), "malformed");
    }

    #[test]
    fn presence_sets_and_windows_follow_the_inputs() {
        let v2 = "<ROOT><Record><Num>2</Num><Title>D</Title></Record></ROOT>";
        let o = oracle(&[V1, v2, V1]);
        assert_eq!(o.presence["1"], vec![1, 3]);
        assert_eq!(intervals(&o.presence["2"]), vec![(1, 3)]);
        assert_eq!(o.content("2", 1), o.content("2", 3));
        assert_ne!(o.content("2", 1), o.content("2", 2));
        assert_eq!(o.check_as_of("1", 2, None), Ok(()));
        assert!(o.check_as_of("1", 1, None).is_err());
        assert_eq!(intervals(&[1, 2, 3, 5, 7, 8]), vec![(1, 3), (5, 5), (7, 8)]);
    }

    #[test]
    fn reader_handles_entities_attributes_and_self_closing_tags() {
        let e = parse_xml("<a x='1' y=\"&lt;\"><b/>t&#65;&#x42;<!-- c --></a>").unwrap();
        assert_eq!(
            e.attrs,
            vec![("x".into(), "1".into()), ("y".into(), "<".into())]
        );
        assert_eq!(e.text(), "tAB");
        assert!(parse_xml("<a></b>").is_err());
        assert!(parse_xml("<a>&bogus;</a>").is_err());
    }
}
