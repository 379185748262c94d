//! The alternative data layout (§3): instead of one PMDK pool with a
//! hashtable, variables live as files in the PMEM filesystem, and a `/` in
//! a variable id creates a directory.
//!
//! ```text
//! cargo run --example hierarchical_layout
//! ```

use mpi_sim::{Comm, World};
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use pmemcpy::{MmapTarget, Options, Pmem};
use simfs::{EntryKind, MountMode, SimFs};
use std::sync::Arc;

fn main() {
    let machine = Machine::chameleon();
    let device = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    // EXT4-DAX over the PMEM namespace.
    let fs = SimFs::mount_all(Arc::clone(&device), MountMode::Dax);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);

    let mut pmem = Pmem::with_options(Options {
        serializer: "cereal".into(),
        ..Options::default()
    });
    pmem.mmap(
        MmapTarget::Fs {
            fs: &fs,
            dir: "/science",
        },
        &comm,
    )
    .unwrap();

    // Ids with '/' become directories — a namespace you can browse.
    pmem.alloc::<f64>("fluid/velocity/u", &[128, 128]).unwrap();
    let u: Vec<f64> = (0..128 * 128).map(|i| (i % 97) as f64).collect();
    pmem.store_block("fluid/velocity/u", &u, &[0, 0], &[128, 128])
        .unwrap();
    pmem.store_slice("fluid/pressure", &vec![101.325f64; 64])
        .unwrap();
    pmem.store_scalar("meta/step", 42u64).unwrap();
    pmem.store_scalar("meta/walltime", 3.75f64).unwrap();

    // Browse the namespace through the filesystem, like `ls -R`.
    println!("PMEM filesystem layout:");
    print_tree(&fs, "/science", 1);

    // Query dimensions the paper's way (load_dims reads "<id>#dims").
    let (dtype, dims) = pmem.load_dims("fluid/velocity/u").unwrap();
    println!("\nfluid/velocity/u: {dims:?} of {dtype:?}");

    // Read everything back.
    let mut back = vec![0f64; 128 * 128];
    pmem.load_block("fluid/velocity/u", &mut back, &[0, 0], &[128, 128])
        .unwrap();
    assert_eq!(back, u);
    assert_eq!(pmem.load_scalar::<u64>("meta/step").unwrap(), 42);
    assert_eq!(
        pmem.load_slice::<f64>("fluid/pressure").unwrap(),
        vec![101.325f64; 64]
    );

    // Enumerate keys through the API as well.
    let mut keys = pmem.keys().unwrap();
    keys.sort();
    println!("\nvariable keys: {keys:#?}");

    pmem.munmap().unwrap();
    println!("hierarchical_layout OK ({} of virtual time)", comm.now());
}

fn print_tree(fs: &Arc<SimFs>, dir: &str, depth: usize) {
    let Ok(entries) = fs.list_dir(dir) else {
        return;
    };
    for (name, kind) in entries {
        let pad = "  ".repeat(depth);
        match kind {
            EntryKind::Dir => {
                println!("{pad}{name}/");
                print_tree(fs, &format!("{dir}/{name}"), depth + 1);
            }
            EntryKind::File => {
                let size = fs.file_size(&format!("{dir}/{name}")).unwrap_or(0);
                println!("{pad}{name}  ({size} bytes)");
            }
        }
    }
}
