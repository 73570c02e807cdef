//! Frozen inputs and recorded outputs, both kept in the benchmark's data
//! directory.
//!
//! `library-full.txt` is the full-grid standard library, characterized
//! once and checked in, so the timing workloads never pay (or depend on)
//! characterization. `expected.txt` holds one `key value` line per
//! recorded output: the library file's digest, the STA endpoint bits per
//! circuit and model, and the PODEM outcome of every pooled ATPG site.

use std::collections::HashMap;
use std::path::Path;

use ssdm_cells::CellLibrary;

/// 64-bit FNV-1a: a fixed, dependency-free digest for drift checks (not
/// a cryptographic hash).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in `bytes`.
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes in a `u64` (little-endian).
    pub fn u64(self, x: u64) -> Fnv {
        self.bytes(&x.to_le_bytes())
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Recorded outputs: the last field of each line, keyed by the fields
/// before it.
#[derive(Debug, Default)]
pub struct Expected(HashMap<String, String>);

impl Expected {
    /// Parses the `expected.txt` format; `#` starts a comment line.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("expected.txt:{}: no value", i + 1))?;
            if map.insert(key.to_string(), value.to_string()).is_some() {
                return Err(format!("expected.txt:{}: duplicate key {key:?}", i + 1));
            }
        }
        Ok(Expected(map))
    }

    /// The recorded value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
}

/// The frozen library and the recorded outputs, as loaded and checked.
#[derive(Debug)]
pub struct Frozen {
    /// The full-grid library.
    pub lib: CellLibrary,
    /// Its file text (for parse timing).
    pub text: String,
    /// Recorded outputs.
    pub expected: Expected,
}

/// Key of the library digest line.
pub const LIBRARY_KEY: &str = "library";

fn read(data: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(data.join(name))
        .map_err(|e| format!("{}: {e}", data.join(name).display()))
}

/// The frozen library's file digest, as recorded.
pub fn library_digest(text: &str) -> String {
    format!("{:016x}", Fnv::default().bytes(text.as_bytes()).finish())
}

/// Reads and parses the frozen library alone, with no recorded outputs
/// (for `--record`).
///
/// # Errors
///
/// A missing or malformed library file.
pub fn read_library(data: &Path) -> Result<Frozen, String> {
    let text = read(data, "library-full.txt")?;
    let lib = CellLibrary::from_text(&text).map_err(|e| format!("library-full.txt: {e}"))?;
    Ok(Frozen {
        lib,
        text,
        expected: Expected::default(),
    })
}

/// Reads `expected.txt` and the frozen library from `data`, checking the
/// library file against its recorded digest before parsing it.
///
/// # Errors
///
/// A missing or malformed file, or a library whose digest differs.
pub fn load(data: &Path) -> Result<Frozen, String> {
    let expected = Expected::parse(&read(data, "expected.txt")?)?;
    let text = read(data, "library-full.txt")?;
    let digest = library_digest(&text);
    match expected.get(LIBRARY_KEY) {
        Some(want) if want == digest => {}
        want => {
            return Err(format!(
                "library-full.txt digest {digest}, recorded {want:?}"
            ))
        }
    }
    let lib = CellLibrary::from_text(&text).map_err(|e| format!("library-full.txt: {e}"))?;
    Ok(Frozen {
        lib,
        text,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn expected_parses_keys_and_rejects_duplicates() {
        let e = Expected::parse("# c\nlibrary 00ff\n\nsite itr c17 1 2 U\n").unwrap();
        assert_eq!(e.get("library"), Some("00ff"));
        assert_eq!(e.get("site itr c17 1 2"), Some("U"));
        assert!(Expected::parse("a 1\na 2\n").is_err());
        assert!(Expected::parse("lonely\n").is_err());
    }

    #[test]
    fn perturbed_library_fails_the_digest_check() {
        let dir = std::env::temp_dir().join(format!("perfledger-frozen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
        let text = std::fs::read_to_string(src.join("library-full.txt")).unwrap();
        std::fs::copy(src.join("expected.txt"), dir.join("expected.txt")).unwrap();
        std::fs::write(dir.join("library-full.txt"), &text).unwrap();
        assert!(load(&dir).is_ok());
        // One changed digit anywhere must be caught before parsing.
        let at = text.find(|c: char| c.is_ascii_digit()).unwrap();
        let mut bad = text.into_bytes();
        bad[at] = if bad[at] == b'9' { b'8' } else { bad[at] + 1 };
        std::fs::write(dir.join("library-full.txt"), bad).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
