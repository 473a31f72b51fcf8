//! An API-compatible stand-in for `crossbeam_epoch`: the pointer layer
//! ([`Atomic`], [`Owned`], [`Shared`], tagged pointers, `compare_exchange`
//! with [`CompareExchangeError`]) and epoch-based reclamation behind [`pin`],
//! [`Guard::defer_destroy`] and [`unprotected`].
//!
//! ## Reclamation
//!
//! The shim reclaims what the containers retire, to the real crate's
//! contract: a pointer handed to [`Guard::defer_destroy`] is freed once no
//! thread that was pinned when it was retired can still be pinned.
//!
//! * One global epoch, and a registry of per-thread records. A record holds
//!   the epoch its thread is pinned at (or "not pinned"), the count of live
//!   guards, and the thread's bags of retired pointers.
//! * [`pin`]: only the outermost pin publishes the record's epoch, with one
//!   `SeqCst` read-modify-write (a locked swap on x86; elsewhere a fence
//!   follows it). A nested pin bumps the count; the outermost guard's drop
//!   unpins.
//! * [`Guard::defer_destroy`] pushes `(pointer, drop fn)` onto the thread's
//!   bag, and every 64 retirements (`BAG_CAP`) seals the bag with the global
//!   epoch. Every 32 retirements the thread tries to advance the epoch (it
//!   moves when every pinned record is at the current one). Each retirement
//!   then frees up to two pointers from the thread's oldest bag once that
//!   bag is two epochs old: about one free per retirement, two while a
//!   backlog drains, and never a burst of frees inside one request.
//! * A thread that exits hands its bags to a global orphan list; a thread
//!   with no expired bag of its own adopts one and frees it the same way. A pin during thread-local teardown gets a
//!   record of its own for the guard's lifetime, so it never panics.
//! * [`unprotected`]'s `defer_destroy` frees at once, as the real crate does.
//! * No collector thread: reclamation runs inside the retiring threads.
//!
//! `Shared::into_owned` (used by the containers for nodes that were never
//! published, and in `Drop` impls with exclusive access) frees immediately,
//! exactly like the real crate.
//!
//! ## Under `--cfg conc_check`
//!
//! The protocol's atomics go through the `conc_check::sync` facade, so pin,
//! advance and free are scheduling points. Nothing is freed: a bag that
//! expires is *quarantined* (`conc_check::quarantine`) — its allocations
//! stay, recorded as freed, and [`Shared::deref`] / [`Shared::as_ref`] or a
//! `RaceCell` access inside one fails the schedule, as does a second
//! retirement of one. So the schedule explorer catches a use after free or
//! a double free, while no address is ever reused, which the checker's
//! per-address `RaceCell` audit assumes (DESIGN.md §13). Every retirement seals its bag there, so that a
//! handful of ops already reach the advance and the free.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool as StdAtomicBool, AtomicPtr};
use std::sync::{Mutex, PoisonError};

// The atomic words — pointer cells and the epoch protocol alike — go through
// the conc-check facade so that, under `--cfg conc_check`, every pointer
// load/store/CAS and every pin, unpin and advance becomes a deterministic
// scheduling point, reported with its `Ordering` to the happens-before
// checker (DESIGN.md §13). Registry membership and the orphan list are
// bookkeeping, not protocol, and use std directly.
use conc_check::sync::{AtomicUsize, Ordering};

use crate::utils::CachePadded;

/// Number of pointer low bits available for tags, given `T`'s alignment.
fn low_bits<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

fn decompose<T>(data: usize) -> (*mut T, usize) {
    ((data & !low_bits::<T>()) as *mut T, data & low_bits::<T>())
}

/// Common interface of [`Owned`] and [`Shared`], so `store` and
/// `compare_exchange` accept either.
pub trait Pointer<T> {
    /// Dissolve into the raw tagged representation.
    fn into_usize(self) -> usize;
    /// Rebuild from the raw tagged representation.
    ///
    /// # Safety
    /// `data` must have come from `into_usize` of the same pointer family.
    unsafe fn from_usize(data: usize) -> Self;
}

/// An owned, heap-allocated pointer (a `Box` with tag bits).
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Self {
        Owned { data: Box::into_raw(Box::new(value)) as usize, _marker: PhantomData }
    }

    /// Return the same pointer with `tag` set in the low bits.
    pub fn with_tag(self, tag: usize) -> Self {
        let data = self.data;
        std::mem::forget(self);
        Owned { data: (data & !low_bits::<T>()) | (tag & low_bits::<T>()), _marker: PhantomData }
    }

    /// Convert into a [`Shared`], transferring ownership into the data
    /// structure (the guard witnesses the epoch pin).
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let data = self.data;
        std::mem::forget(self);
        Shared { data, _marker: PhantomData }
    }

    /// Consume the box, returning the value.
    pub fn into_box(self) -> Box<T> {
        let (ptr, _) = decompose::<T>(self.data);
        std::mem::forget(self);
        // SAFETY: an `Owned` always holds a pointer produced by
        // `Box::into_raw`, and `forget(self)` above prevents a double free.
        unsafe { Box::from_raw(ptr) }
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: `Owned` uniquely owns a live heap allocation.
        unsafe { &*ptr }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: `&mut self` on a uniquely owned live allocation.
        unsafe { &mut *ptr }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: the pointer came from `Box::into_raw` and ownership was
        // never transferred out (those paths `forget` self first).
        drop(unsafe { Box::from_raw(ptr) });
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        std::mem::forget(self);
        data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Owned { data, _marker: PhantomData }
    }
}

/// A shared, possibly-tagged pointer valid for the guard lifetime `'g`.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<'g, T> Clone for Shared<'g, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'g, T> Copy for Shared<'g, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared { data: 0, _marker: PhantomData }
    }

    /// True when the (untagged) pointer is null.
    pub fn is_null(&self) -> bool {
        decompose::<T>(self.data).0.is_null()
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    /// The tag stored in the low bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// The same pointer with a different tag.
    pub fn with_tag(&self, tag: usize) -> Self {
        Shared {
            data: (self.data & !low_bits::<T>()) | (tag & low_bits::<T>()),
            _marker: PhantomData,
        }
    }

    /// Dereference. Under `conc_check`, fails the schedule when the
    /// pointee was already reclaimed (module docs).
    ///
    /// # Safety
    /// The pointer must be non-null and the pointee alive.
    pub unsafe fn deref(&self) -> &'g T {
        #[cfg(conc_check)]
        conc_check::quarantine::check(self.as_raw() as usize);
        // SAFETY: forwarded to the caller (see the `# Safety` contract).
        unsafe { &*self.as_raw() }
    }

    /// Dereference as an `Option` (`None` when null). Under `conc_check`,
    /// fails the schedule when the pointee was already reclaimed.
    ///
    /// # Safety
    /// The pointee must be alive if non-null.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        let p = self.as_raw();
        if p.is_null() {
            None
        } else {
            #[cfg(conc_check)]
            conc_check::quarantine::check(p as usize);
            // SAFETY: non-null here; liveness is the caller's contract.
            Some(unsafe { &*p })
        }
    }

    /// Reclaim ownership of the pointee.
    ///
    /// # Safety
    /// The caller must have exclusive access (the pointer unreachable to any
    /// other thread).
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on null Shared");
        #[cfg(conc_check)]
        conc_check::quarantine::check(self.as_raw() as usize);
        Owned { data: self.data, _marker: PhantomData }
    }
}

impl<'g, T> From<*const T> for Shared<'g, T> {
    fn from(p: *const T) -> Self {
        Shared { data: p as usize, _marker: PhantomData }
    }
}

impl<'g, T> PartialEq for Shared<'g, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<'g, T> Eq for Shared<'g, T> {}

impl<'g, T> std::fmt::Debug for Shared<'g, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({:p}, tag={})", self.as_raw(), self.tag())
    }
}

impl<'g, T> Pointer<T> for Shared<'g, T> {
    fn into_usize(self) -> usize {
        self.data
    }
    unsafe fn from_usize(data: usize) -> Self {
        Shared { data, _marker: PhantomData }
    }
}

/// Error of a failed [`Atomic::compare_exchange`]: the value actually found,
/// and the `new` pointer handed back so the caller can reuse or free it.
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed new pointer, returned to the caller.
    pub new: P,
}

/// An atomic tagged pointer to `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` is a word-sized atomic cell; sharing it across threads
// only hands out `Shared<T>` references, which is sound when `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — all mutation goes through atomic operations.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null atomic pointer.
    pub fn null() -> Self {
        Atomic { data: AtomicUsize::new(0), _marker: PhantomData }
    }

    /// Allocate `value` and store the pointer.
    pub fn new(value: T) -> Self {
        Atomic::from(Owned::new(value))
    }

    /// Load the current pointer.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { data: self.data.load(ord), _marker: PhantomData }
    }

    /// Store a pointer ([`Owned`] or [`Shared`]).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    /// Swap in a pointer, returning the previous one.
    pub fn swap<'g, P: Pointer<T>>(&self, new: P, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { data: self.data.swap(new.into_usize(), ord), _marker: PhantomData }
    }

    /// Compare-and-exchange: install `new` if the current value is
    /// `current`. On success returns the installed pointer as [`Shared`];
    /// on failure returns the observed value and hands `new` back.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        match self.data.compare_exchange(current.data, new_data, success, failure) {
            Ok(_) => Ok(Shared { data: new_data, _marker: PhantomData }),
            Err(found) => Err(CompareExchangeError {
                current: Shared { data: found, _marker: PhantomData },
                // SAFETY: `new_data` came from `new.into_usize()` two lines
                // up, so rebuilding the same pointer family is sound.
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic { data: AtomicUsize::new(owned.into_usize()), _marker: PhantomData }
    }
}

impl<'g, T> From<Shared<'g, T>> for Atomic<T> {
    fn from(shared: Shared<'g, T>) -> Self {
        Atomic { data: AtomicUsize::new(shared.data), _marker: PhantomData }
    }
}

impl<T> From<*const T> for Atomic<T> {
    fn from(p: *const T) -> Self {
        Atomic { data: AtomicUsize::new(p as usize), _marker: PhantomData }
    }
}

// ---------------------------------------------------------------------------
// Epoch-based reclamation
// ---------------------------------------------------------------------------

/// Retirements a thread gathers in its bag before it seals the bag.
#[cfg(not(conc_check))]
const BAG_CAP: usize = 64;
/// Under `conc_check` every retirement seals its bag, so that a schedule of
/// a few ops already interleaves pin, advance and free.
#[cfg(conc_check)]
const BAG_CAP: usize = 1;

/// Retirements between attempts to advance the epoch.
const COLLECT_EVERY: usize = if BAG_CAP > 1 { BAG_CAP / 2 } else { 1 };

/// Pointers a retirement frees from the thread's oldest expired bag. More
/// than one, so that a backlog left by a stalled advance or by exited
/// threads drains instead of staying; few, so that no request pays a burst.
const FREES_PER_RETIRE: usize = 2;

/// Bit 0 of a record's epoch word: set while its thread is pinned.
const PINNED: usize = 1;
/// One epoch step; the global epoch keeps bit 0 clear.
const STEP: usize = 2;

/// The global epoch.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Head of the registry: a push-only list of records. Records are never
/// freed; a thread that exits gives its record back for the next one.
static REGISTRY: AtomicPtr<CachePadded<Local>> = AtomicPtr::new(std::ptr::null_mut());
/// Sealed bags of records that were given back, each adopted and freed by
/// a collecting thread that has no expired bag of its own.
static ORPHANS: Mutex<Vec<Sealed>> = Mutex::new(Vec::new());

/// A retired pointer and the function that frees it.
struct Deferred {
    ptr: *mut (),
    #[cfg_attr(conc_check, allow(dead_code))]
    free: unsafe fn(*mut ()),
    /// The pointee's size, for the quarantine.
    #[cfg(conc_check)]
    len: usize,
}

// SAFETY: a retired pointee is unreachable to every thread that pins later,
// so its destructor may run on whichever thread frees the bag — the contract
// the real crate puts on `defer_destroy`'s caller.
unsafe impl Send for Deferred {}

/// Free a pointer that came from `Box::<T>::into_raw`.
///
/// # Safety
/// `ptr` must be such a pointer, freed exactly once.
unsafe fn free_box<T>(ptr: *mut ()) {
    // SAFETY: per this fn's contract.
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

impl Deferred {
    fn new<T>(ptr: *const T) -> Self {
        Deferred {
            ptr: ptr as *mut (),
            free: free_box::<T>,
            #[cfg(conc_check)]
            len: std::mem::size_of::<T>(),
        }
    }

    /// Free the pointee; under `conc_check`, quarantine its address instead.
    ///
    /// # Safety
    /// No thread can still reach the pointee, and it is run exactly once.
    unsafe fn run(self) {
        #[cfg(not(conc_check))]
        // SAFETY: per this fn's contract; `new` paired `free` with the
        // pointer's type.
        unsafe {
            (self.free)(self.ptr)
        };
        #[cfg(conc_check)]
        conc_check::quarantine::free(self.ptr as usize, self.len);
    }
}

/// A bag stamped with the global epoch it was sealed in.
struct Sealed {
    epoch: usize,
    items: Vec<Deferred>,
}

impl Sealed {
    /// Two epochs after the seal, every thread that was pinned before the
    /// seal has unpinned: an advance needs every pinned record at the
    /// current epoch.
    fn expired(&self, now: usize) -> bool {
        // Signed: a `now` read before another thread sealed this bag is
        // older than its stamp, and must not wrap around into "expired".
        now.wrapping_sub(self.epoch) as isize >= (2 * STEP) as isize
    }
}

/// One thread's record. The registry keeps it forever: a thread claims it
/// through `in_use` and gives it back when it exits.
struct Local {
    /// `epoch | PINNED` while the owner is pinned, 0 otherwise. Read by
    /// every advancer.
    epoch: AtomicUsize,
    in_use: StdAtomicBool,
    /// The next record in the registry; written once, before publication.
    next: *const CachePadded<Local>,
    // The owner's state, touched only by the thread holding `in_use`.
    guards: Cell<usize>,
    /// True while a thread-local handle owns the record. Once false (the
    /// thread is exiting, or the record serves one pin during thread-local
    /// teardown), the last guard's drop gives the record back.
    owned: Cell<bool>,
    bag: RefCell<Vec<Deferred>>,
    /// Sealed bags, oldest first; the front one may be partly freed.
    sealed: RefCell<VecDeque<Sealed>>,
    /// The global epoch as this thread's last advance attempt left it.
    now: Cell<usize>,
}

// SAFETY: the fields other threads read are atomics and the write-once
// `next`; everything else is touched only by the thread that claimed the
// record through `in_use` (Acquire), until it gives it back (Release).
unsafe impl Sync for Local {}

impl Local {
    /// Claim a record that was given back, or register a new one.
    fn acquire(owned: bool) -> &'static Local {
        let mut p = REGISTRY.load(Ordering::Acquire);
        // SAFETY: registry records are never freed.
        while let Some(rec) = unsafe { p.as_ref() } {
            // ORDERING: Acquire on success takes over the state the last
            // owner gave back with a Release store; Relaxed on failure, the
            // record stays someone else's.
            if rec
                .in_use
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                rec.owned.set(owned);
                return rec;
            }
            p = rec.next.cast_mut();
        }
        let rec = Box::into_raw(Box::new(CachePadded::new(Local {
            epoch: AtomicUsize::new(0),
            in_use: StdAtomicBool::new(true),
            next: std::ptr::null(),
            guards: Cell::new(0),
            owned: Cell::new(owned),
            bag: RefCell::new(Vec::with_capacity(BAG_CAP)),
            sealed: RefCell::new(VecDeque::new()),
            now: Cell::new(0),
        })));
        // ORDERING: Relaxed — this read only seeds the CAS loop below.
        let mut head = REGISTRY.load(Ordering::Relaxed);
        loop {
            // SAFETY: `rec` is not published yet, so this thread owns it.
            unsafe { (&mut *rec).next = head };
            // ORDERING: Release on success publishes the record and its
            // `next` to registry walkers; Relaxed on failure, the retry links
            // to the head it returns.
            match REGISTRY.compare_exchange_weak(head, rec, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => break,
                Err(cur) => head = cur,
            }
        }
        // SAFETY: published records are never freed.
        unsafe { &*rec }
    }

    #[inline]
    fn pin(&'static self) -> Guard {
        let n = self.guards.get();
        self.guards.set(n.checked_add(1).expect("guard count overflow"));
        if n == 0 {
            self.publish();
        }
        Guard { local: self }
    }

    /// Publish this thread as pinned at the global epoch. The swap is
    /// `SeqCst`, so a pin and an advancer's scan are totally ordered: either
    /// the scan sees the pin, or every pointer load after the pin sees the
    /// unlinks made before the scan.
    #[inline]
    fn publish(&self) {
        // ORDERING: Relaxed — a stale epoch only pins this thread at an
        // older epoch, which blocks an advance and never lets one through;
        // the SeqCst swap below orders the pin against advancers.
        let now = EPOCH.load(Ordering::Relaxed);
        self.epoch.swap(now | PINNED, Ordering::SeqCst);
        // x86's locked swap is a full barrier; elsewhere the later pointer
        // loads need a fence to stay behind the published epoch.
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        fence(Ordering::SeqCst);
    }

    #[inline]
    fn unpin(&self) {
        let n = self.guards.get() - 1;
        self.guards.set(n);
        if n == 0 {
            // Release: what this thread read under the pin happens before
            // the advance of a scan that sees the record unpinned.
            self.epoch.store(0, Ordering::Release);
            if !self.owned.get() {
                self.release();
            }
        }
    }

    fn defer(&self, d: Deferred) {
        let len = {
            let mut bag = self.bag.borrow_mut();
            bag.push(d);
            bag.len()
        };
        if len >= BAG_CAP {
            self.seal();
        }
        if len % COLLECT_EVERY == 0 {
            self.collect();
        }
        self.free_expired(FREES_PER_RETIRE);
    }

    /// Stamp the current bag with the global epoch and queue it.
    fn seal(&self) {
        if self.bag.borrow().is_empty() {
            return;
        }
        let items = std::mem::replace(&mut *self.bag.borrow_mut(), Vec::with_capacity(BAG_CAP));
        // Every pointer in the bag was unlinked before this fence, so the
        // stamp read after it is no older than any of those unlinks.
        fence(Ordering::SeqCst);
        // ORDERING: Relaxed — the SeqCst fence above orders this read.
        let epoch = EPOCH.load(Ordering::Relaxed);
        self.sealed.borrow_mut().push_back(Sealed { epoch, items });
    }

    /// Try to advance the epoch. With no expired bag of its own to pay
    /// down, the thread adopts one expired orphan bag.
    fn collect(&self) {
        let now = try_advance();
        self.now.set(now);
        if !self.sealed.borrow().front().is_some_and(|b| b.expired(now)) {
            if let Some(bag) = take_orphan(now) {
                self.sealed.borrow_mut().push_front(bag);
            }
        }
    }

    /// Free up to `n` pointers from the oldest bag, once it has expired.
    fn free_expired(&self, n: usize) {
        for _ in 0..n {
            let next = {
                let mut sealed = self.sealed.borrow_mut();
                let Some(bag) = sealed.front_mut() else { return };
                if !bag.expired(self.now.get()) {
                    return;
                }
                let d = bag.items.pop();
                if bag.items.is_empty() {
                    sealed.pop_front();
                }
                d
            };
            // No borrow is held while a pointee frees: its destructor may
            // pin and retire again.
            if let Some(d) = next {
                // SAFETY: the bag expired (see `Sealed::expired`), and the
                // retirer made each pointer unreachable before it retired
                // it, once; `pop` hands each out once.
                unsafe { d.run() };
            }
        }
    }

    /// Give the record back: its bags go to the orphan list, and the next
    /// thread to register may claim it.
    fn release(&self) {
        self.seal();
        let bags: Vec<Sealed> = self.sealed.borrow_mut().drain(..).collect();
        if !bags.is_empty() {
            ORPHANS.lock().unwrap_or_else(PoisonError::into_inner).extend(bags);
        }
        // ORDERING: Release hands the record's state to the next claimant's
        // Acquire.
        self.in_use.store(false, Ordering::Release);
    }
}

/// Advance the global epoch if every pinned record is at it. Returns the
/// epoch as this call leaves it.
fn try_advance() -> usize {
    // ORDERING: Relaxed — the SeqCst fence below orders the scan after this
    // read; a stale value only fails the advance.
    let now = EPOCH.load(Ordering::Relaxed);
    // Pairs with each pin's SeqCst swap (see `Local::publish`).
    fence(Ordering::SeqCst);
    let mut p = REGISTRY.load(Ordering::Acquire);
    // SAFETY: registry records are never freed.
    while let Some(rec) = unsafe { p.as_ref() } {
        // ORDERING: Relaxed — the fences around the scan order it, as in the
        // real crate.
        let e = rec.epoch.load(Ordering::Relaxed);
        if e & PINNED != 0 && e & !PINNED != now {
            return now;
        }
        p = rec.next.cast_mut();
    }
    // What the threads seen unpinned did under their pins happens before
    // this advance (each unpin is a Release store).
    fence(Ordering::Acquire);
    let next = now.wrapping_add(STEP);
    // ORDERING: Release on success publishes the advance; Relaxed on
    // failure, another thread advanced first and its epoch is returned.
    match EPOCH.compare_exchange(now, next, Ordering::Release, Ordering::Relaxed) {
        Ok(_) => next,
        Err(cur) => cur,
    }
}

/// Take one expired bag off the orphan list.
fn take_orphan(now: usize) -> Option<Sealed> {
    let mut orphans = ORPHANS.lock().unwrap_or_else(PoisonError::into_inner);
    orphans.iter().position(|b| b.expired(now)).map(|i| orphans.swap_remove(i))
}

/// Witness of an epoch pin: while it lives, nothing retired after the pin
/// began is freed. `!Send`, as in the real crate.
pub struct Guard {
    /// The pinned record; null for [`unprotected`].
    local: *const Local,
}

impl Guard {
    fn local(&self) -> Option<&Local> {
        // SAFETY: a non-null `local` is a registry record, never freed, and
        // this guard keeps it claimed.
        unsafe { self.local.as_ref() }
    }

    /// Retire the pointee: it is freed once no thread that is pinned now
    /// can still be pinned. Under [`unprotected`] it is freed at once.
    ///
    /// # Safety
    /// The pointer must have come from an [`Owned`], must be unreachable to
    /// threads that pin after this call, and must be retired only once —
    /// the real crate's contract.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        let d = Deferred::new(ptr.as_raw());
        match self.local() {
            Some(local) => local.defer(d),
            // SAFETY: `unprotected`'s caller guarantees that no other thread
            // can reach the pointee, and ours retires it once.
            None => unsafe { d.run() },
        }
    }

    /// Seal this thread's bag, try to advance the epoch and free up to one
    /// bag's worth of expired pointers. A no-op on the unprotected guard.
    pub fn flush(&self) {
        if let Some(local) = self.local() {
            local.seal();
            local.collect();
            local.free_expired(BAG_CAP);
        }
    }

    /// Unpin and pin again at the current epoch, so that a long-lived guard
    /// stops holding reclamation back. A no-op on a nested or unprotected
    /// guard.
    pub fn repin(&mut self) {
        if let Some(local) = self.local() {
            if local.guards.get() == 1 {
                local.epoch.store(0, Ordering::Release);
                local.publish();
            }
        }
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if let Some(local) = self.local() {
            local.unpin();
        }
    }
}

/// The thread's claim on its record, given back when the thread exits.
struct Handle {
    local: Cell<*const Local>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        // SAFETY: registry records are never freed.
        if let Some(local) = unsafe { self.local.get().as_ref() } {
            local.owned.set(false);
            if local.guards.get() == 0 {
                local.release();
            }
        }
    }
}

thread_local! {
    static HANDLE: Handle = const { Handle { local: Cell::new(std::ptr::null()) } };
}

/// Pin the current thread, returning a guard. Only the outermost pin of a
/// thread publishes its epoch; nested pins count.
#[inline]
pub fn pin() -> Guard {
    HANDLE
        .try_with(|h| {
            // SAFETY: registry records are never freed.
            match unsafe { h.local.get().as_ref() } {
                Some(local) => local.pin(),
                None => {
                    let local = Local::acquire(true);
                    h.local.set(local);
                    local.pin()
                }
            }
        })
        // Thread-local teardown: a record of its own for this guard, given
        // back when the guard drops.
        .unwrap_or_else(|_| Local::acquire(false).pin())
}

/// The guard behind [`unprotected`]: it has no record.
struct Unprotected(Guard);

// SAFETY: the unprotected guard has no record, so its methods free at once
// or do nothing; sharing it shares no state.
unsafe impl Sync for Unprotected {}

static UNPROTECTED: Unprotected = Unprotected(Guard { local: std::ptr::null() });

/// A guard that does not pin: its `defer_destroy` frees at once.
///
/// # Safety
/// Caller must guarantee no concurrent access to the data structures used
/// under it (same contract as the real crate).
pub unsafe fn unprotected() -> &'static Guard {
    &UNPROTECTED.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Count;
    use std::sync::Arc;

    /// Counts its own drops.
    struct Dropper(Arc<Count>);

    impl Drop for Dropper {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Flush with quiet pins until `done` holds, for at most 10 s. Other
    /// tests of this binary pin beside us and can hold an advance back for a
    /// moment, hence a loop rather than a fixed count.
    fn flush_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() && std::time::Instant::now() < deadline {
            pin().flush();
            std::thread::yield_now();
        }
    }

    /// Retire `n` counted values through `guard`-scoped pins.
    fn retire(n: usize, drops: &Arc<Count>) {
        for _ in 0..n {
            let g = pin();
            let s = Owned::new(Dropper(Arc::clone(drops))).into_shared(&g);
            // SAFETY: `s` was never published; it is retired once.
            unsafe { g.defer_destroy(s) };
        }
    }

    #[test]
    fn a_bag_expires_two_epochs_after_its_seal_and_never_before() {
        let bag = Sealed { epoch: 10 * STEP, items: Vec::new() };
        assert!(!bag.expired(11 * STEP));
        assert!(bag.expired(12 * STEP));
        // A collector's epoch can be older than a bag another thread sealed.
        assert!(!bag.expired(9 * STEP));
        let wrapped = Sealed { epoch: usize::MAX - 1, items: Vec::new() };
        assert!(wrapped.expired((usize::MAX - 1).wrapping_add(2 * STEP)));
    }

    #[test]
    fn guard_is_not_send() {
        // Resolves only when exactly one impl applies: were `Guard: Send`,
        // both would, and the path below would be ambiguous.
        trait AmbiguousIfSend<A> {
            fn some_item() {}
        }
        impl<T: ?Sized> AmbiguousIfSend<()> for T {}
        impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
        <Guard as AmbiguousIfSend<_>>::some_item();
    }

    #[cfg(not(conc_check))]
    #[test]
    fn retired_values_are_dropped_after_a_quiet_flush_loop() {
        let drops = Arc::new(Count::new(0));
        let n = 10 * BAG_CAP + 7;
        retire(n, &drops);
        flush_until(|| drops.load(Ordering::SeqCst) == n);
        assert!(
            drops.load(Ordering::SeqCst) >= n - BAG_CAP,
            "{} of {n} dropped",
            drops.load(Ordering::SeqCst)
        );
    }

    #[cfg(not(conc_check))]
    #[test]
    fn unprotected_defer_destroy_frees_at_once() {
        let drops = Arc::new(Count::new(0));
        // SAFETY: the value is never shared.
        unsafe {
            let g = unprotected();
            let s = Owned::new(Dropper(Arc::clone(&drops))).into_shared(g);
            g.defer_destroy(s);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[cfg(not(conc_check))]
    #[test]
    fn a_pinned_thread_holds_back_what_was_retired_after_it_pinned() {
        let drops = Arc::new(Count::new(0));
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let outer = pin();
            // A nested pin publishes nothing; its drop leaves us pinned.
            drop(pin());
            pinned_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(outer);
        });
        pinned_rx.recv().unwrap();
        retire(4 * BAG_CAP, &drops);
        for _ in 0..1_000 {
            pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under another thread's pin");
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        flush_until(|| drops.load(Ordering::SeqCst) == 4 * BAG_CAP);
        assert_eq!(drops.load(Ordering::SeqCst), 4 * BAG_CAP);
    }

    #[cfg(not(conc_check))]
    #[test]
    fn a_backlog_drains_while_retiring_goes_on() {
        let drops = Arc::new(Count::new(0));
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let g = pin();
            pinned_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(g);
        });
        pinned_rx.recv().unwrap();
        // A backlog of 16 bags that cannot expire while `holder` is pinned.
        let mut retired = 16 * BAG_CAP;
        retire(retired, &drops);
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        // Steady retiring alone, without a flush, pays the backlog back.
        let live = |retired: usize| retired - drops.load(Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while live(retired) > 6 * BAG_CAP && std::time::Instant::now() < deadline {
            retire(BAG_CAP, &drops);
            retired += BAG_CAP;
        }
        assert!(live(retired) <= 6 * BAG_CAP, "{} retired values still alive", live(retired));
    }

    #[cfg(not(conc_check))]
    #[test]
    fn an_exited_threads_bags_are_freed_by_others() {
        let drops = Arc::new(Count::new(0));
        let n = 3 * BAG_CAP + 1;
        let d = Arc::clone(&drops);
        std::thread::spawn(move || retire(n, &d)).join().unwrap();
        flush_until(|| drops.load(Ordering::SeqCst) == n);
        assert_eq!(drops.load(Ordering::SeqCst), n);
    }

    #[cfg(not(conc_check))]
    #[test]
    fn a_pin_during_thread_local_teardown_does_not_panic() {
        struct PinOnDrop(Arc<Count>);
        impl Drop for PinOnDrop {
            fn drop(&mut self) {
                retire(1, &self.0);
            }
        }
        thread_local! {
            static LATE: RefCell<Option<PinOnDrop>> = const { RefCell::new(None) };
        }
        let drops = Arc::new(Count::new(0));
        let d = Arc::clone(&drops);
        std::thread::spawn(move || {
            // Pin first, so this thread's handle is destroyed before `LATE`
            // (thread locals drop in reverse order of first use).
            drop(pin());
            LATE.with(|l| *l.borrow_mut() = Some(PinOnDrop(d)));
        })
        .join()
        .expect("a pin in a thread-local destructor must not panic");
        flush_until(|| drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tag_roundtrip() {
        let g = pin();
        let a: Atomic<u64> = Atomic::new(42);
        let s = a.load(Ordering::Acquire, &g);
        assert_eq!(s.tag(), 0);
        let t = s.with_tag(1);
        assert_eq!(t.tag(), 1);
        assert_eq!(t.as_raw(), s.as_raw());
        // SAFETY: single-threaded test; the allocation is live.
        assert_eq!(unsafe { *t.deref() }, 42);
        // SAFETY: sole owner; reclaim exactly once.
        drop(unsafe { s.into_owned() });
    }

    #[test]
    fn cas_success_and_failure() {
        let g = pin();
        let a: Atomic<u64> = Atomic::null();
        let n1 = Owned::new(1u64);
        let installed =
            a.compare_exchange(Shared::null(), n1, Ordering::AcqRel, Ordering::Acquire, &g);
        assert!(installed.is_ok());
        let cur = a.load(Ordering::Acquire, &g);
        // Wrong expectation: CAS fails and hands the new pointer back.
        let n2 = Owned::new(2u64);
        match a.compare_exchange(Shared::null(), n2, Ordering::AcqRel, Ordering::Acquire, &g) {
            Err(e) => {
                assert_eq!(e.current, cur);
                drop(e.new); // reclaim the rejected allocation
            }
            Ok(_) => panic!("CAS must fail"),
        }
        // SAFETY: single-threaded test; sole owner of the installed node.
        drop(unsafe { cur.into_owned() });
    }

    #[test]
    fn null_checks() {
        let s: Shared<'_, u64> = Shared::null();
        assert!(s.is_null());
        // SAFETY: null pointer; `as_ref` returns None without dereferencing.
        assert!(unsafe { s.as_ref() }.is_none());
        // A tagged null is still null.
        assert!(s.with_tag(1).is_null());
    }
}
