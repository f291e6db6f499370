//! A scratch directory for the tests of this directory: `mod scratch;`.

use std::path::{Path, PathBuf};

/// A scratch directory under the system temp dir, removed with what it
/// holds when dropped, so a test run leaves none behind.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `metacomm-<name>-<pid>`, made empty.
    pub fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("metacomm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
