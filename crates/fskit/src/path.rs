//! Path normalization and validation.
//!
//! Paths are absolute, `/`-separated UTF-8 strings. Components are limited
//! to 255 bytes like ext2/PMFS. `.` and `..` are resolved lexically.

use crate::error::{FsError, Result};

/// Maximum length of a single path component, in bytes.
pub const MAX_NAME: usize = 255;

/// Splits an absolute path into validated, normalized components.
///
/// The root path `/` yields an empty vector.
///
/// # Examples
///
/// ```
/// use fskit::path::components;
/// assert_eq!(components("/a/b/c")?, vec!["a", "b", "c"]);
/// assert_eq!(components("/a//b/./c/..")?, vec!["a", "b"]);
/// assert_eq!(components("/")?, Vec::<&str>::new());
/// assert!(components("relative").is_err());
/// # Ok::<(), fskit::FsError>(())
/// ```
pub fn components(path: &str) -> Result<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument("path must be absolute"));
    }
    let mut out: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                // Lexical parent; `..` at root stays at root like POSIX.
                out.pop();
            }
            name => {
                if name.len() > MAX_NAME {
                    return Err(FsError::NameTooLong);
                }
                out.push(name);
            }
        }
    }
    Ok(out)
}

/// Splits a path into its parent's components and the final name.
///
/// Fails on the root path (it has no parent entry).
pub fn split_parent(path: &str) -> Result<(Vec<&str>, &str)> {
    let mut comps = components(path)?;
    let name = comps
        .pop()
        .ok_or(FsError::InvalidArgument("root has no name"))?;
    Ok((comps, name))
}

/// Validates a single component name (for rename targets etc.).
pub fn validate_name(name: &str) -> Result<()> {
    if name.is_empty() || name == "." || name == ".." {
        return Err(FsError::InvalidArgument("invalid name component"));
    }
    if name.contains('/') {
        return Err(FsError::InvalidArgument("name contains a slash"));
    }
    if name.len() > MAX_NAME {
        return Err(FsError::NameTooLong);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_dots_and_slashes() {
        assert_eq!(components("//x///y//").unwrap(), vec!["x", "y"]);
        assert_eq!(components("/x/../y").unwrap(), vec!["y"]);
        assert_eq!(components("/../x").unwrap(), vec!["x"]);
    }

    #[test]
    fn rejects_relative() {
        assert_eq!(
            components("a/b"),
            Err(FsError::InvalidArgument("path must be absolute"))
        );
    }

    #[test]
    fn rejects_long_names() {
        let long = format!("/{}", "a".repeat(MAX_NAME + 1));
        assert_eq!(components(&long), Err(FsError::NameTooLong));
        let ok = format!("/{}", "a".repeat(MAX_NAME));
        assert!(components(&ok).is_ok());
    }

    #[test]
    fn split_parent_works() {
        let (parent, name) = split_parent("/a/b/c").unwrap();
        assert_eq!(parent, vec!["a", "b"]);
        assert_eq!(name, "c");
        assert!(split_parent("/").is_err());
    }

    #[test]
    fn validate_name_cases() {
        assert!(validate_name("ok.txt").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".").is_err());
        assert!(validate_name("..").is_err());
        assert!(validate_name("a/b").is_err());
    }
}
