//! File-backed write-ahead log.
//!
//! [`FileWal`] puts a [`crate::wal::Wal`]'s newline-delimited-JSON
//! encoding on a real file: records are appended as they are logged and
//! [`FileWal::sync`] maps to `fdatasync`, so the synced prefix survives a
//! process crash for real instead of by simulation. Opening an existing
//! log tolerates a torn final record (a crash mid-`write`) exactly like
//! [`Wal::decode`] does, and repairs the file to the clean prefix so
//! subsequent appends start from a well-formed log.

use crate::error::{DbError, Result};
use crate::wal::{LogRecord, Wal};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn io_err(e: std::io::Error) -> DbError {
    DbError::Io(e.to_string())
}

/// An append-only operation log persisted to a file.
///
/// The on-disk encoding is identical to [`Wal::encode`]; `FileWal` only
/// manages the file handle, the append cursor, and torn-tail repair at
/// open time. The caller keeps the authoritative in-memory [`Wal`] (or
/// materialized state) — `FileWal` is the durability side-car.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: File,
    records: usize,
}

impl FileWal {
    /// Create (or truncate) the log file at `path`, starting empty.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(FileWal {
            path,
            file,
            records: 0,
        })
    }

    /// Open an existing log file (or create an empty one), returning the
    /// handle and the decoded records. A torn final record — the classic
    /// crash-mid-write artifact — is dropped and the file is truncated
    /// back to the clean prefix, so the log is well-formed for appends.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failures; [`DbError::WalCorrupt`] if
    /// a non-final record is undecodable (real corruption, not a torn
    /// tail).
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Wal)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false) // existing records are the point of reopening
            .open(&path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let wal = Wal::decode(&bytes)?;
        let clean = wal.encode();
        if clean.len() != bytes.len() {
            // torn tail: rewrite the surviving prefix so the partial
            // record never confuses a later reader
            file.set_len(0).map_err(io_err)?;
            file.seek(SeekFrom::Start(0)).map_err(io_err)?;
            file.write_all(&clean).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        } else {
            file.seek(SeekFrom::End(0)).map_err(io_err)?;
        }
        let records = wal.len();
        Ok((
            FileWal {
                path,
                file,
                records,
            },
            wal,
        ))
    }

    /// Append one record to the file (buffered by the OS; call
    /// [`FileWal::sync`] to force it to stable storage).
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the write fails.
    pub fn append(&mut self, record: &LogRecord) -> Result<()> {
        let mut line = String::new();
        record.write_line(&mut line);
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.records += 1;
        Ok(())
    }

    /// Force appended records to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the sync fails.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(io_err)
    }

    /// Rewrite the file to hold exactly `wal`'s records — used after a
    /// checkpoint truncates the log, or to discard an unsynced suffix.
    /// Synced before returning.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the rewrite fails.
    pub fn reset(&mut self, wal: &Wal) -> Result<()> {
        self.file.set_len(0).map_err(io_err)?;
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.file.write_all(&wal.encode()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.records = wal.len();
        Ok(())
    }

    /// Records appended over the file's lifetime (post-open/reset).
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// Tests live in `tests/file_wal.rs`: they exercise real files under
// `CARGO_TARGET_TMPDIR`, which cargo only provides to integration tests.
