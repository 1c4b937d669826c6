//! The flat `/account/container/object` namespace.
//!
//! Swift's access path "consists of exactly three elements:
//! /account/container/object. Nesting of accounts and containers is not
//! supported" — object names may contain slashes (pseudo-directories), but
//! account and container names may not.

use scoop_common::{Result, ScoopError};
use std::fmt;

/// A fully-qualified object path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectPath {
    /// Account (tenant) name, e.g. `AUTH_gridpocket`.
    pub account: String,
    /// Container name.
    pub container: String,
    /// Object name; may contain `/` (pseudo-directories).
    pub object: String,
}

fn validate_segment(kind: &str, s: &str, allow_slash: bool) -> Result<()> {
    if s.is_empty() {
        return Err(ScoopError::InvalidRequest(format!("empty {kind} name")));
    }
    if s.len() > 1024 {
        return Err(ScoopError::InvalidRequest(format!("{kind} name too long")));
    }
    if !allow_slash && s.contains('/') {
        return Err(ScoopError::InvalidRequest(format!(
            "{kind} name may not contain '/': {s}"
        )));
    }
    if s.bytes().any(|b| b == 0 || b == b'\n' || b == b'\r') {
        return Err(ScoopError::InvalidRequest(format!(
            "{kind} name contains control characters"
        )));
    }
    Ok(())
}

impl ObjectPath {
    /// Construct a validated object path.
    pub fn new(
        account: impl Into<String>,
        container: impl Into<String>,
        object: impl Into<String>,
    ) -> Result<ObjectPath> {
        let p = ObjectPath {
            account: account.into(),
            container: container.into(),
            object: object.into(),
        };
        validate_segment("account", &p.account, false)?;
        validate_segment("container", &p.container, false)?;
        validate_segment("object", &p.object, true)?;
        Ok(p)
    }

    /// Parse a `/account/container/object` URL path.
    pub fn parse(s: &str) -> Result<ObjectPath> {
        let trimmed = s.strip_prefix('/').unwrap_or(s);
        let mut it = trimmed.splitn(3, '/');
        let account = it.next().unwrap_or("");
        let container = it.next().ok_or_else(|| {
            ScoopError::InvalidRequest(format!("path '{s}' missing container"))
        })?;
        let object = it.next().ok_or_else(|| {
            ScoopError::InvalidRequest(format!("path '{s}' missing object"))
        })?;
        ObjectPath::new(account, container, object)
    }

    /// The container prefix `/account/container`.
    pub fn container_path(&self) -> String {
        format!("/{}/{}", self.account, self.container)
    }

    /// The canonical hashing key for ring placement.
    pub fn ring_key(&self) -> String {
        format!("/{}/{}/{}", self.account, self.container, self.object)
    }
}

impl fmt::Display for ObjectPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/{}/{}", self.account, self.container, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p = ObjectPath::parse("/AUTH_gp/meters/2015/01/part-0001.csv").unwrap();
        assert_eq!(p.account, "AUTH_gp");
        assert_eq!(p.container, "meters");
        assert_eq!(p.object, "2015/01/part-0001.csv");
        assert_eq!(p.to_string(), "/AUTH_gp/meters/2015/01/part-0001.csv");
        assert_eq!(ObjectPath::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ObjectPath::parse("/acct").is_err());
        assert!(ObjectPath::parse("/acct/cont").is_err());
        assert!(ObjectPath::new("", "c", "o").is_err());
        assert!(ObjectPath::new("a", "c/d", "o").is_err());
        assert!(ObjectPath::new("a", "c", "").is_err());
        assert!(ObjectPath::new("a", "c", "o\nbad").is_err());
        assert!(ObjectPath::new("a", "x".repeat(2000), "o").is_err());
    }

    #[test]
    fn container_path_and_ring_key() {
        let p = ObjectPath::new("a", "c", "o").unwrap();
        assert_eq!(p.container_path(), "/a/c");
        assert_eq!(p.ring_key(), "/a/c/o");
    }
}
