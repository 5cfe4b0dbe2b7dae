//! Benchmark workloads reproducing §IV of the paper: the IO500 mdtest
//! configurations (`mdtest-easy`, `mdtest-hard`), fio-style large-file
//! sequential I/O, and the tar-based archiving/unarchiving scenarios over
//! a synthetic MS-COCO-like dataset.
//!
//! Workloads are generic over [`SimClient`]: any file system in the
//! workspace (ArkFS or a baseline) whose clients carry a virtual-time
//! [`arkfs_simkit::Port`].

pub mod client;
pub mod dataset;
pub mod drive;
pub mod fio;
pub mod mdtest;
pub mod ops;
pub mod tar;
pub mod zipf;

pub use client::SimClient;
pub use dataset::DatasetSpec;
pub use drive::{run_ops, DriveReport};
pub use fio::{FioConfig, FioResult};
pub use mdtest::{MdtestEasyConfig, MdtestHardConfig, MdtestResult};
pub use ops::{exec_op, gen_iter, Op, OpGen, OpState};
pub use tar::{ArchiveConfig, ArchiveResult};
pub use zipf::Zipf;
