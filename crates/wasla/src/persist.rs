//! Crash-safe persistence for the advisor session's calibration cache.
//!
//! A [`Service`](crate::session::Service) opened on a cache directory
//! restores its calibration tables from one JSON file,
//! `calibrations.json`, a versioned, checksummed snapshot:
//!
//! ```text
//! { "version": 1,
//!   "kind": "calibrations",
//!   "checksum": <FNV-1a over the canonical entries JSON>,
//!   "entries": [[key, value], ...] }
//! ```
//!
//! Durability discipline:
//!
//! * **Atomic writes** — snapshots are written to `<file>.tmp` and
//!   renamed into place, so a crash mid-write leaves the previous
//!   snapshot intact (rename is atomic on POSIX filesystems).
//! * **Corruption is quarantined, not fatal** — a file that fails to
//!   parse, decodes to the wrong kind, carries a different format
//!   version, or whose checksum does not match its entries is renamed
//!   to `<file>.quarantined` and reported as a typed
//!   [`DegradedNote::CacheQuarantined`]; the cache rebuilds cold.
//!   Loading never panics and never poisons a session with bad data.
//! * **Warm ≡ cold** — restored entries are bit-identical to freshly
//!   computed ones (the in-tree JSON codec round-trips `u64` keys and
//!   `f64` table values exactly), so a restarted service reproduces
//!   warm results byte-for-byte.
//! * **Whole tables only** — a calibration the advise path measured on
//!   demand is completed in the copy written, so `calibrations.json`
//!   holds the same bytes whatever demands the session served.
//! * **Fits are not persisted** — a `fits.json` that an older build
//!   left in the directory is never read, so it is ignored rather than
//!   quarantined.
//!
//! The only hard error is failing to move damage out of the way: if
//! the quarantine rename itself fails (e.g. the quarantine path is
//! blocked), loading returns [`WaslaError::Io`] naming the quarantine
//! path — the CLI maps that to exit code 3.

use crate::error::WaslaError;
use crate::pipeline::DegradedNote;
use crate::session::AdvisorSession;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wasla_core::StageCache;
use wasla_simlib::hash::Fnv64;
use wasla_simlib::json::{self, FromJson, Json, ToJson};

/// Snapshot format version; bump on any incompatible change. A
/// version-skewed file is quarantined and rebuilt, never misread.
pub const CACHE_VERSION: u64 = 1;

/// File name of the calibration-table snapshot inside a cache dir.
pub const CALIBRATIONS_FILE: &str = "calibrations.json";

/// File name of the daemon controller checkpoint inside a cache dir.
pub const CONTROLLER_FILE: &str = "controller.json";

/// Saves the session's calibration cache into `dir` (created if
/// missing) with an atomic tmp-file-then-rename write.
pub fn save_session(dir: &Path, session: &AdvisorSession) -> Result<(), WaslaError> {
    std::fs::create_dir_all(dir).map_err(|e| WaslaError::io(dir.display().to_string(), &e))?;
    let calibrations = session.complete_calibrations();
    save_cache(dir, CALIBRATIONS_FILE, "calibrations", &calibrations)
}

/// Loads a session from `dir`. A missing file means a cold cache; a
/// bad one is quarantined and reported. Only a failing quarantine
/// rename is an error.
pub fn load_session(dir: &Path) -> Result<(AdvisorSession, Vec<DegradedNote>), WaslaError> {
    let mut notes = Vec::new();
    let calibrations = load_cache(dir, CALIBRATIONS_FILE, "calibrations", &mut notes)?;
    Ok((AdvisorSession::from_calibrations(calibrations), notes))
}

/// Saves a daemon controller checkpoint into `dir` (created if
/// missing) under the same version/kind/checksum discipline as the
/// calibration snapshot; the checksum covers the canonical rendering of the
/// `state` field. Atomic tmp-file-then-rename write.
pub fn save_controller(
    dir: &Path,
    state: &crate::daemon::ControllerState,
) -> Result<(), WaslaError> {
    std::fs::create_dir_all(dir).map_err(|e| WaslaError::io(dir.display().to_string(), &e))?;
    let body = state.to_json();
    let doc = Json::Obj(vec![
        ("version".to_string(), CACHE_VERSION.to_json()),
        ("kind".to_string(), "controller".to_json()),
        ("checksum".to_string(), checksum(&body).to_json()),
        ("state".to_string(), body),
    ]);
    let path = dir.join(CONTROLLER_FILE);
    let tmp = dir.join(format!("{CONTROLLER_FILE}.tmp"));
    std::fs::write(&tmp, json::to_string(&doc))
        .map_err(|e| WaslaError::io(tmp.display().to_string(), &e))?;
    std::fs::rename(&tmp, &path).map_err(|e| WaslaError::io(path.display().to_string(), &e))
}

/// Loads a daemon controller checkpoint from `dir`. A missing file is
/// a cold start (`None`); a corrupt, version-skewed, wrong-kind, or
/// checksum-mismatched file is quarantined to `<file>.quarantined`,
/// reported as a [`DegradedNote::CacheQuarantined`], and the
/// controller restarts cold. Only a failing quarantine rename is an
/// error.
pub fn load_controller(
    dir: &Path,
) -> Result<(Option<crate::daemon::ControllerState>, Vec<DegradedNote>), WaslaError> {
    let path = dir.join(CONTROLLER_FILE);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, Vec::new())),
        Err(e) => return Err(WaslaError::io(path.display().to_string(), &e)),
    };
    match decode_controller(&raw) {
        Ok(state) => Ok((Some(state), Vec::new())),
        Err(_reason) => {
            let quarantined = quarantine(&path)?;
            Ok((
                None,
                vec![DegradedNote::CacheQuarantined { path: quarantined }],
            ))
        }
    }
}

/// Decodes and validates one controller checkpoint; any `Err` means
/// "quarantine".
fn decode_controller(raw: &str) -> Result<crate::daemon::ControllerState, String> {
    let doc = Json::parse(raw).map_err(|e| e.to_string())?;
    let field = |name: &str| {
        doc.field(name)
            .ok_or_else(|| format!("missing field {name:?}"))
    };
    let version = u64::from_json(field("version")?).map_err(|e| e.to_string())?;
    if version != CACHE_VERSION {
        return Err(format!("version skew: {version} != {CACHE_VERSION}"));
    }
    let file_kind = String::from_json(field("kind")?).map_err(|e| e.to_string())?;
    if file_kind != "controller" {
        return Err(format!("kind mismatch: {file_kind:?} != \"controller\""));
    }
    let declared = u64::from_json(field("checksum")?).map_err(|e| e.to_string())?;
    let body = field("state")?;
    let actual = checksum(body);
    if declared != actual {
        return Err(format!("checksum mismatch: {declared} != {actual}"));
    }
    crate::daemon::ControllerState::from_json(body).map_err(|e| e.to_string())
}

/// The canonical JSON array a cache's entries serialize to; the
/// checksum is computed over exactly this rendering.
fn entries_json<V: ToJson>(entries: &[(u64, Arc<V>)]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|(key, value)| Json::Arr(vec![key.to_json(), value.to_json()]))
            .collect(),
    )
}

fn checksum(entries: &Json) -> u64 {
    Fnv64::new().write_str(&json::to_string(entries)).finish()
}

fn save_cache<V: ToJson>(
    dir: &Path,
    file: &str,
    kind: &str,
    entries: &[(u64, Arc<V>)],
) -> Result<(), WaslaError> {
    let entries = entries_json(entries);
    let doc = Json::Obj(vec![
        ("version".to_string(), CACHE_VERSION.to_json()),
        ("kind".to_string(), kind.to_json()),
        ("checksum".to_string(), checksum(&entries).to_json()),
        ("entries".to_string(), entries),
    ]);
    let path = dir.join(file);
    let tmp = dir.join(format!("{file}.tmp"));
    std::fs::write(&tmp, json::to_string(&doc))
        .map_err(|e| WaslaError::io(tmp.display().to_string(), &e))?;
    std::fs::rename(&tmp, &path).map_err(|e| WaslaError::io(path.display().to_string(), &e))
}

fn load_cache<V: FromJson>(
    dir: &Path,
    file: &str,
    kind: &str,
    notes: &mut Vec<DegradedNote>,
) -> Result<StageCache<V>, WaslaError> {
    let path = dir.join(file);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(StageCache::new()),
        Err(e) => return Err(WaslaError::io(path.display().to_string(), &e)),
    };
    match decode_cache(&raw, kind) {
        Ok(cache) => Ok(cache),
        Err(_reason) => {
            let quarantined = quarantine(&path)?;
            notes.push(DegradedNote::CacheQuarantined { path: quarantined });
            Ok(StageCache::new())
        }
    }
}

/// Decodes and validates one snapshot; any `Err` means "quarantine".
fn decode_cache<V: FromJson>(raw: &str, kind: &str) -> Result<StageCache<V>, String> {
    let doc = Json::parse(raw).map_err(|e| e.to_string())?;
    let field = |name: &str| {
        doc.field(name)
            .ok_or_else(|| format!("missing field {name:?}"))
    };
    let version = u64::from_json(field("version")?).map_err(|e| e.to_string())?;
    if version != CACHE_VERSION {
        return Err(format!("version skew: {version} != {CACHE_VERSION}"));
    }
    let file_kind = String::from_json(field("kind")?).map_err(|e| e.to_string())?;
    if file_kind != kind {
        return Err(format!("kind mismatch: {file_kind:?} != {kind:?}"));
    }
    let declared = u64::from_json(field("checksum")?).map_err(|e| e.to_string())?;
    let entries = field("entries")?;
    let actual = checksum(entries);
    if declared != actual {
        return Err(format!("checksum mismatch: {declared} != {actual}"));
    }
    let rows = match entries {
        Json::Arr(rows) => rows,
        _ => return Err("entries must be an array".to_string()),
    };
    let mut decoded = Vec::with_capacity(rows.len());
    for row in rows {
        let pair = match row {
            Json::Arr(pair) if pair.len() == 2 => pair,
            _ => return Err("each entry must be a [key, value] pair".to_string()),
        };
        let key = u64::from_json(&pair[0]).map_err(|e| e.to_string())?;
        let value = V::from_json(&pair[1]).map_err(|e| e.to_string())?;
        decoded.push((key, value));
    }
    Ok(StageCache::from_entries(decoded))
}

/// Moves a damaged snapshot to `<file>.quarantined`. Failing to move
/// it is the one fatal path: the bad file would otherwise be re-read
/// (and re-rejected) forever.
fn quarantine(path: &Path) -> Result<String, WaslaError> {
    let quarantine_path = PathBuf::from(format!("{}.quarantined", path.display()));
    std::fs::rename(path, &quarantine_path)
        .map_err(|e| WaslaError::io(quarantine_path.display().to_string(), &e))?;
    Ok(quarantine_path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wasla-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let dir = scratch_dir("roundtrip");
        // Extreme keys must survive JSON.
        let cache: StageCache<u64> =
            StageCache::from_entries(vec![(u64::MAX, 1), (0x1234_5678_9abc_def0, 2)]);
        save_cache(&dir, "test.json", "test", cache.entries()).unwrap();
        let mut notes = Vec::new();
        let back: StageCache<u64> = load_cache(&dir, "test.json", "test", &mut notes).unwrap();
        assert!(notes.is_empty());
        assert_eq!(back.entries(), cache.entries());
        assert!(!dir.join("test.json.tmp").exists(), "tmp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let dir = scratch_dir("missing");
        let mut notes = Vec::new();
        let cache: StageCache<u64> = load_cache(&dir, "nope.json", "test", &mut notes).unwrap();
        assert!(cache.is_empty());
        assert!(notes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_is_quarantined_and_rebuilt_cold() {
        let dir = scratch_dir("damage");
        let cache: StageCache<u64> = StageCache::from_entries(vec![(1, 10)]);
        let cases: Vec<(&str, String)> = vec![
            ("garbage", "{not json".to_string()),
            (
                "version skew",
                r#"{"version": 999, "kind": "test", "checksum": 0, "entries": []}"#.to_string(),
            ),
            (
                "kind mismatch",
                r#"{"version": 1, "kind": "other", "checksum": 0, "entries": []}"#.to_string(),
            ),
            ("checksum mismatch", {
                save_cache(&dir, "test.json", "test", cache.entries()).unwrap();
                let good = std::fs::read_to_string(dir.join("test.json")).unwrap();
                good.replace("[[1,10]]", "[[1,99]]")
            }),
        ];
        for (label, contents) in cases {
            let _ = std::fs::remove_file(dir.join("test.json.quarantined"));
            std::fs::write(dir.join("test.json"), contents).unwrap();
            let mut notes = Vec::new();
            let back: StageCache<u64> = load_cache(&dir, "test.json", "test", &mut notes).unwrap();
            assert!(back.is_empty(), "{label}: cache must rebuild cold");
            assert_eq!(notes.len(), 1, "{label}: expected a quarantine note");
            assert!(
                matches!(&notes[0], DegradedNote::CacheQuarantined { path }
                    if path.ends_with("test.json.quarantined")),
                "{label}: got {:?}",
                notes[0]
            );
            assert!(dir.join("test.json.quarantined").exists(), "{label}");
            assert!(
                !dir.join("test.json").exists(),
                "{label}: damage left in place"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blocked_quarantine_is_a_typed_io_error() {
        let dir = scratch_dir("blocked");
        std::fs::write(dir.join("test.json"), "{not json").unwrap();
        // A non-empty directory at the quarantine path blocks the rename.
        let blocker = dir.join("test.json.quarantined");
        std::fs::create_dir_all(blocker.join("occupied")).unwrap();
        let mut notes = Vec::new();
        let err = load_cache::<u64>(&dir, "test.json", "test", &mut notes).unwrap_err();
        assert_eq!(err.exit_code(), 3, "quarantine failure must map to I/O");
        assert!(
            matches!(&err, WaslaError::Io { path, .. } if path.ends_with("test.json.quarantined")),
            "error must name the quarantine path, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
