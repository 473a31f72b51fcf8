//! A fresh segment must cost neither time nor resident memory until it is
//! written. Alone in its test binary: `VmRSS` is process-wide, and a
//! neighbouring test allocating concurrently would move it.

use hcl_mem::Segment;

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn untouched_segment_pages_are_not_resident() {
    const LEN: usize = 64 << 20;
    // The probe's own buffers are resident before the first reading.
    let block = vec![0xA5u8; 8 << 20];
    let mut back = vec![0x5Au8; block.len()];
    let Some(before) = vm_rss_kib() else {
        eprintln!("skipped: no /proc/self/status on this platform");
        return;
    };
    let seg = Segment::new(LEN);
    let created = vm_rss_kib().unwrap();
    assert!(
        created.saturating_sub(before) <= 1024,
        "creating a 64 MiB segment raised VmRSS by {} KiB",
        created.saturating_sub(before)
    );
    // Still a zero-filled segment, first word to last byte.
    let mut tail = [0xFFu8; 24];
    seg.read(LEN - 24, &mut tail).unwrap();
    assert_eq!(tail, [0u8; 24]);
    assert_eq!(seg.load_u64(0).unwrap(), 0);

    // Writing is what makes pages resident.
    seg.write(16 << 20, &block).unwrap();
    let written = vm_rss_kib().unwrap();
    assert!(
        written.saturating_sub(created) >= 7 * 1024,
        "an 8 MiB write raised VmRSS by only {} KiB — is the probe measuring anything?",
        written.saturating_sub(created)
    );
    seg.read(16 << 20, &mut back).unwrap();
    assert_eq!(back, block);
}
