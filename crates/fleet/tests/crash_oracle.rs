//! Reference oracle for `Volume::power_cut`. The volume applies a cut to
//! its armed store snapshots in place; the oracle takes the long way
//! round — a sparse byte image of each snapshot, `sim_disk::crash::replay`,
//! then every word read back sector by sector — and the two must agree
//! on every word of every member, failed members included.

use fleet::{member_boundaries, SectorStore, StripePolicy, Volume};
use proptest::prelude::*;
use sim_disk::crash::{replay, splitmix, CrashLog, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::SimTime;

fn volume(raid5: bool, members: usize) -> Volume {
    let drives: Vec<_> = (0..members)
        .map(|_| {
            let d = Disk::new(models::small_test_disk());
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let mut v = if raid5 {
        Volume::raid5(drives, StripePolicy::aligned()).unwrap()
    } else {
        Volume::mirrored(drives, StripePolicy::aligned()).unwrap()
    };
    v.format(0x5eed);
    v
}

/// `ops` random writes (and some reads), all derived from `seed`.
fn workload(v: &mut Volume, seed: u64, ops: usize) {
    let mut h = seed;
    let mut next = move || {
        h = splitmix(h);
        h
    };
    let cap = v.capacity();
    let mut t = SimTime::ZERO;
    for _ in 0..ops {
        let len = 1 + next() % 256;
        let lbn = next() % (cap - len);
        if next() % 4 == 0 {
            t = v
                .read(lbn, len, t)
                .expect("volume serves reads")
                .0
                .completion;
        } else {
            let words: Vec<u64> = (0..len).map(|o| splitmix(seed ^ (lbn + o))).collect();
            t = v
                .write(lbn, &words, t)
                .expect("volume serves writes")
                .completion;
        }
    }
}

/// The member's words after a cut, the long way: every nonzero word of
/// the snapshot becomes a sector (word little-endian in the first 8
/// bytes), the log is replayed onto that image, and each word is read
/// back. A failed member's platters are scrambled afterwards.
fn oracle(snapshot: &SectorStore, log: &CrashLog, cut: SimTime, failed: Option<u64>) -> Vec<u64> {
    let cap = snapshot.capacity();
    let mut base = SectorImage::new();
    for lbn in 0..cap {
        let w = snapshot.word(lbn);
        if w != 0 {
            let mut sector = [0u8; SECTOR_USIZE];
            sector[..8].copy_from_slice(&w.to_le_bytes());
            base.write(lbn, &sector);
        }
    }
    let image = replay(&base, log, cut).expect("every write attaches its payload");
    let mut store = SectorStore::new(cap);
    for lbn in 0..cap {
        let sector = image.read(lbn);
        store.set_word(lbn, u64::from_le_bytes(sector[..8].try_into().unwrap()));
    }
    if let Some(salt) = failed {
        store.scramble(salt);
    }
    let mut words = Vec::with_capacity(cap as usize);
    store.read_into(0, cap, &mut words);
    words
}

/// Arms `v`, runs the workload (failing `victim` halfway through, if
/// any), cuts at `frac`/1000 of the crash horizon, and checks every
/// member word against the oracle.
fn check(mut v: Volume, seed: u64, frac: u64, victim: Option<usize>) -> Result<(), String> {
    let members = v.member_health().len();
    v.arm_crash();
    let snapshots: Vec<SectorStore> = (0..members).map(|m| v.member_store(m).clone()).collect();
    workload(&mut v, seed, 12);
    if let Some(m) = victim {
        v.fail_member(m).expect("one failure is survivable");
    }
    workload(&mut v, splitmix(seed), 12);
    let logs: Vec<CrashLog> = (0..members)
        .map(|m| v.member_crash_log(m).expect("armed").clone())
        .collect();
    let cut = SimTime::from_ns(v.crash_horizon().as_ns() * frac / 1000);
    v.power_cut(cut).expect("every write attaches its payload");
    for m in 0..members {
        let failed = (victim == Some(m)).then_some(m as u64);
        let expect = oracle(&snapshots[m], &logs[m], cut, failed);
        let store = v.member_store(m);
        let mut got = Vec::with_capacity(expect.len());
        store.read_into(0, store.capacity(), &mut got);
        if let Some(lbn) = (0..expect.len()).find(|&i| got[i] != expect[i]) {
            return Err(format!(
                "member {m} word {lbn}: power_cut {:#x}, oracle {:#x}",
                got[lbn], expect[lbn]
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random RAID-5 and mirror workloads, cut anywhere from before the
    /// first write to after the last.
    #[test]
    fn power_cut_matches_the_replay_oracle(
        seed in 0u64..u64::MAX,
        frac in 0u64..=1000,
        raid5 in 0u8..2,
    ) {
        let v = if raid5 == 1 { volume(true, 3) } else { volume(false, 2) };
        let outcome = check(v, seed, frac, None);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// A member that fails while armed comes back scrambled, and the
/// survivors still match the oracle word for word.
#[test]
fn power_cut_matches_the_oracle_with_a_failed_member() {
    check(volume(true, 3), 0xfa11, 640, Some(1)).unwrap();
    check(volume(false, 3), 0xfa11, 640, Some(2)).unwrap();
}
