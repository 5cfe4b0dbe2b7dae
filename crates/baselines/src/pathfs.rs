//! Shared "bucket" model for the S3-backed file systems (S3FS, goofys):
//! a flat path-keyed index over whole-file objects.
//!
//! This reproduces the properties §II-C criticizes: "as the object's key
//! is treated as a full pathname, renaming of a directory leads to a
//! situation where all the files under the directory are rewritten", and
//! "permission check is not done rigorously".

use arkfs::prt::map_os_err;
use arkfs_objstore::{wait_last, BatchSpan, ObjectKey, ObjectStore, OsError};
use arkfs_simkit::{Nanos, Port};
use arkfs_vfs::{path as vpath, DirEntry, FileType, FsError, FsResult, Ino};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index entry for one key in the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketEntry {
    pub ino: Ino,
    pub is_dir: bool,
    pub size: u64,
    pub mtime: Nanos,
}

/// One mounted bucket, shared by every client of a deployment.
pub struct Bucket {
    index: Mutex<BTreeMap<String, BucketEntry>>,
    next_ino: AtomicU64,
    store: Arc<dyn ObjectStore>,
    /// Upload part / data object size.
    pub part_size: u64,
}

impl Bucket {
    pub fn new(store: Arc<dyn ObjectStore>, part_size: u64) -> Arc<Self> {
        assert!(part_size > 0);
        Arc::new(Bucket {
            index: Mutex::new(BTreeMap::new()),
            next_ino: AtomicU64::new(2),
            store,
            part_size,
        })
    }

    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    fn alloc_ino(&self) -> Ino {
        self.next_ino.fetch_add(1, Ordering::Relaxed) as Ino
    }

    fn canonical(path: &str) -> FsResult<String> {
        Ok(vpath::join(&vpath::components(path)?))
    }

    /// Does the parent prefix exist as a directory (or the root)?
    fn parent_ok(index: &BTreeMap<String, BucketEntry>, path: &str) -> bool {
        match path.rfind('/') {
            Some(0) | None => true,
            Some(idx) => index.get(&path[..idx]).is_some_and(|e| e.is_dir),
        }
    }

    pub fn lookup(&self, path: &str) -> FsResult<BucketEntry> {
        let path = Self::canonical(path)?;
        if path == "/" {
            return Ok(BucketEntry {
                ino: 1,
                is_dir: true,
                size: 0,
                mtime: 0,
            });
        }
        self.index
            .lock()
            .get(&path)
            .copied()
            .ok_or(FsError::NotFound)
    }

    /// HEAD the marker object (charges one S3 op) then return the entry.
    pub fn stat(&self, port: &Port, path: &str) -> FsResult<BucketEntry> {
        let entry = self.lookup(path)?;
        let _ = self.store.head(port, ObjectKey::inode(entry.ino));
        Ok(entry)
    }

    pub fn mkdir(&self, port: &Port, path: &str, now: Nanos) -> FsResult<BucketEntry> {
        let path = Self::canonical(path)?;
        let ino = self.alloc_ino();
        {
            let mut index = self.index.lock();
            if !Self::parent_ok(&index, &path) {
                return Err(FsError::NotFound);
            }
            if index.contains_key(&path) {
                return Err(FsError::AlreadyExists);
            }
            index.insert(
                path,
                BucketEntry {
                    ino,
                    is_dir: true,
                    size: 0,
                    mtime: now,
                },
            );
        }
        // Directory marker object ("dir/" key on real S3).
        self.store
            .put(port, ObjectKey::inode(ino), Bytes::new())
            .map_err(map_os_err)?;
        Ok(BucketEntry {
            ino,
            is_dir: true,
            size: 0,
            mtime: now,
        })
    }

    pub fn create(&self, port: &Port, path: &str, now: Nanos) -> FsResult<BucketEntry> {
        let path = Self::canonical(path)?;
        let ino = self.alloc_ino();
        {
            let mut index = self.index.lock();
            if !Self::parent_ok(&index, &path) {
                return Err(FsError::NotFound);
            }
            if index.contains_key(&path) {
                return Err(FsError::AlreadyExists);
            }
            index.insert(
                path.clone(),
                BucketEntry {
                    ino,
                    is_dir: false,
                    size: 0,
                    mtime: now,
                },
            );
        }
        self.store
            .put(port, ObjectKey::inode(ino), Bytes::new())
            .map_err(map_os_err)?;
        Ok(BucketEntry {
            ino,
            is_dir: false,
            size: 0,
            mtime: now,
        })
    }

    pub fn set_size(&self, path: &str, size: u64, now: Nanos) -> FsResult<()> {
        let path = Self::canonical(path)?;
        let mut index = self.index.lock();
        let entry = index.get_mut(&path).ok_or(FsError::NotFound)?;
        entry.size = size;
        entry.mtime = now;
        Ok(())
    }

    /// List direct children of a directory (charges one LIST).
    pub fn readdir(&self, port: &Port, path: &str) -> FsResult<Vec<DirEntry>> {
        let path = Self::canonical(path)?;
        if path != "/" && !self.lookup(&path)?.is_dir {
            return Err(FsError::NotADirectory);
        }
        let _ = self
            .store
            .list(port, Some(arkfs_objstore::KeyKind::Inode), None);
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let index = self.index.lock();
        let mut out = Vec::new();
        for (key, entry) in index.range(prefix.clone()..) {
            if !key.starts_with(&prefix) {
                break;
            }
            let rest = &key[prefix.len()..];
            if rest.is_empty() || rest.contains('/') {
                continue; // deeper than one level
            }
            out.push(DirEntry {
                name: rest.to_string(),
                ino: entry.ino,
                ftype: if entry.is_dir {
                    FileType::Directory
                } else {
                    FileType::Regular
                },
            });
        }
        Ok(out)
    }

    pub fn unlink(&self, port: &Port, path: &str) -> FsResult<BucketEntry> {
        let path = Self::canonical(path)?;
        let entry = {
            let mut index = self.index.lock();
            let entry = *index.get(&path).ok_or(FsError::NotFound)?;
            if entry.is_dir {
                return Err(FsError::IsADirectory);
            }
            index.remove(&path);
            entry
        };
        let _ = self.store.delete(port, ObjectKey::inode(entry.ino));
        self.delete_data(port, entry.ino, entry.size)?;
        Ok(entry)
    }

    pub fn rmdir(&self, port: &Port, path: &str) -> FsResult<()> {
        let path = Self::canonical(path)?;
        let entry = self.lookup(&path)?;
        if !entry.is_dir {
            return Err(FsError::NotADirectory);
        }
        {
            let mut index = self.index.lock();
            let prefix = format!("{path}/");
            if index
                .range(prefix.clone()..)
                .next()
                .is_some_and(|(k, _)| k.starts_with(&prefix))
            {
                return Err(FsError::NotEmpty);
            }
            index.remove(&path);
        }
        let _ = self.store.delete(port, ObjectKey::inode(entry.ino));
        Ok(())
    }

    /// Rename: every object under the source prefix is COPIED to a fresh
    /// key and the original deleted — the S3FS full-rewrite behaviour.
    /// Returns the number of bytes rewritten.
    pub fn rename(&self, port: &Port, from: &str, to: &str, now: Nanos) -> FsResult<u64> {
        let from = Self::canonical(from)?;
        let to = Self::canonical(to)?;
        if from == to {
            return Ok(0);
        }
        let moves: Vec<(String, String, BucketEntry)> = {
            let index = self.index.lock();
            if !index.contains_key(&from) {
                return Err(FsError::NotFound);
            }
            if index.contains_key(&to) {
                return Err(FsError::AlreadyExists);
            }
            let prefix = format!("{from}/");
            index
                .iter()
                .filter(|(k, _)| *k == &from || k.starts_with(&prefix))
                .map(|(k, e)| {
                    let suffix = &k[from.len()..];
                    (k.clone(), format!("{to}{suffix}"), *e)
                })
                .collect()
        };
        let mut rewritten = 0u64;
        let mut updates = Vec::with_capacity(moves.len());
        for (old_key, new_key, entry) in moves {
            let new_ino = self.alloc_ino();
            if !entry.is_dir && entry.size > 0 {
                // Server-side copy still reads + writes every object.
                let chunks = entry.size.div_ceil(self.part_size);
                let keys: Vec<ObjectKey> = (0..chunks)
                    .map(|i| ObjectKey::data_chunk(entry.ino, i))
                    .collect();
                let store = &*self.store;
                let datas = wait_last(store, port, BatchSpan::Get, |t| store.get_each(t, &keys));
                let mut puts = Vec::new();
                for (i, d) in datas.into_iter().enumerate() {
                    match d {
                        Ok(bytes) => {
                            rewritten += bytes.len() as u64;
                            puts.push((ObjectKey::data_chunk(new_ino, i as u64), bytes));
                        }
                        Err(OsError::NotFound) => {}
                        Err(e) => return Err(map_os_err(e)),
                    }
                }
                for r in wait_last(store, port, BatchSpan::Put, |t| store.put_each(t, puts)) {
                    r.map_err(map_os_err)?;
                }
                self.delete_data(port, entry.ino, entry.size)?;
            }
            let _ = self.store.delete(port, ObjectKey::inode(entry.ino));
            self.store
                .put(port, ObjectKey::inode(new_ino), Bytes::new())
                .map_err(map_os_err)?;
            updates.push((
                old_key,
                new_key,
                BucketEntry {
                    ino: new_ino,
                    mtime: now,
                    ..entry
                },
            ));
        }
        let mut index = self.index.lock();
        for (old_key, new_key, entry) in updates {
            index.remove(&old_key);
            index.insert(new_key, entry);
        }
        Ok(rewritten)
    }

    /// Delete the data objects of a file.
    pub fn delete_data(&self, port: &Port, ino: Ino, size: u64) -> FsResult<()> {
        let keys: Vec<ObjectKey> = (0..size.div_ceil(self.part_size))
            .map(|i| ObjectKey::data_chunk(ino, i))
            .collect();
        if keys.is_empty() {
            return Ok(());
        }
        let store = &*self.store;
        for r in wait_last(store, port, BatchSpan::Delete, |t| {
            store.delete_each(t, &keys)
        }) {
            match r {
                Ok(()) | Err(OsError::NotFound) => {}
                Err(e) => return Err(map_os_err(e)),
            }
        }
        Ok(())
    }

    /// Upload a whole file as part objects (multipart upload).
    pub fn upload(&self, port: &Port, ino: Ino, data: &[u8]) -> FsResult<()> {
        let mut puts = Vec::new();
        let mut off = 0usize;
        let mut part = 0u64;
        while off < data.len() {
            let n = (self.part_size as usize).min(data.len() - off);
            puts.push((
                ObjectKey::data_chunk(ino, part),
                Bytes::copy_from_slice(&data[off..off + n]),
            ));
            off += n;
            part += 1;
        }
        let store = &*self.store;
        for r in wait_last(store, port, BatchSpan::Put, |t| store.put_each(t, puts)) {
            r.map_err(map_os_err)?;
        }
        Ok(())
    }

    /// Download a whole file from its part objects.
    pub fn download(&self, port: &Port, ino: Ino, size: u64) -> FsResult<Vec<u8>> {
        let chunks = size.div_ceil(self.part_size);
        let keys: Vec<ObjectKey> = (0..chunks).map(|i| ObjectKey::data_chunk(ino, i)).collect();
        let mut out = Vec::with_capacity(size as usize);
        let store = &*self.store;
        for r in wait_last(store, port, BatchSpan::Get, |t| store.get_each(t, &keys)) {
            match r {
                Ok(bytes) => out.extend_from_slice(&bytes),
                Err(OsError::NotFound) => {}
                Err(e) => return Err(map_os_err(e)),
            }
        }
        out.resize(size as usize, 0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};

    fn bucket() -> Arc<Bucket> {
        Bucket::new(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())), 64)
    }

    #[test]
    fn create_stat_list_delete() {
        let b = bucket();
        let port = Port::new();
        b.mkdir(&port, "/d", 0).unwrap();
        b.create(&port, "/d/f", 1).unwrap();
        b.set_size("/d/f", 10, 2).unwrap();
        assert_eq!(b.stat(&port, "/d/f").unwrap().size, 10);
        let entries = b.readdir(&port, "/d").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "f");
        // Nested entries don't show up in a shallower listing.
        b.mkdir(&port, "/d/sub", 0).unwrap();
        b.create(&port, "/d/sub/deep", 0).unwrap();
        assert_eq!(b.readdir(&port, "/d").unwrap().len(), 2);
        assert_eq!(b.readdir(&port, "/").unwrap().len(), 1);
        b.unlink(&port, "/d/f").unwrap();
        assert_eq!(b.stat(&port, "/d/f").err(), Some(FsError::NotFound));
        assert_eq!(b.rmdir(&port, "/d").err(), Some(FsError::NotEmpty));
        b.unlink(&port, "/d/sub/deep").unwrap();
        b.rmdir(&port, "/d/sub").unwrap();
        b.rmdir(&port, "/d").unwrap();
    }

    #[test]
    fn create_needs_parent() {
        let b = bucket();
        let port = Port::new();
        assert_eq!(
            b.create(&port, "/missing/f", 0).err(),
            Some(FsError::NotFound)
        );
        b.create(&port, "/top", 0).unwrap();
        assert_eq!(
            b.create(&port, "/top", 0).err(),
            Some(FsError::AlreadyExists)
        );
        // A file is not a valid parent.
        assert_eq!(b.create(&port, "/top/f", 0).err(), Some(FsError::NotFound));
    }

    #[test]
    fn upload_download_roundtrip() {
        let b = bucket();
        let port = Port::new();
        let e = b.create(&port, "/f", 0).unwrap();
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        b.upload(&port, e.ino, &data).unwrap();
        b.set_size("/f", 200, 1).unwrap();
        assert_eq!(b.download(&port, e.ino, 200).unwrap(), data);
    }

    #[test]
    fn directory_rename_rewrites_every_object() {
        let b = bucket();
        let port = Port::new();
        b.mkdir(&port, "/old", 0).unwrap();
        let mut total = 0u64;
        for i in 0..5 {
            let e = b.create(&port, &format!("/old/f{i}"), 0).unwrap();
            let data = vec![i as u8; 100];
            b.upload(&port, e.ino, &data).unwrap();
            b.set_size(&format!("/old/f{i}"), 100, 0).unwrap();
            total += 100;
        }
        let rewritten = b.rename(&port, "/old", "/new", 1).unwrap();
        assert_eq!(
            rewritten, total,
            "every byte under the directory is rewritten"
        );
        assert_eq!(b.readdir(&port, "/new").unwrap().len(), 5);
        assert_eq!(b.stat(&port, "/old").err(), Some(FsError::NotFound));
        // Data is intact under the new keys.
        let e = b.stat(&port, "/new/f3").unwrap();
        assert_eq!(b.download(&port, e.ino, 100).unwrap(), vec![3u8; 100]);
    }

    #[test]
    fn file_rename_rewrites_its_data() {
        let b = bucket();
        let port = Port::new();
        let e = b.create(&port, "/a", 0).unwrap();
        b.upload(&port, e.ino, &[7u8; 130]).unwrap();
        b.set_size("/a", 130, 0).unwrap();
        let rewritten = b.rename(&port, "/a", "/b", 1).unwrap();
        assert_eq!(rewritten, 130);
        assert_eq!(
            b.rename(&port, "/nope", "/x", 1).err(),
            Some(FsError::NotFound)
        );
    }
}
