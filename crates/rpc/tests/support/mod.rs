//! Registration helper shared by the envelope tests: bind a `u64 -> u64`
//! function behind an ownership-epoch gate and a version stamp.

use std::sync::Arc;

use hcl_rpc::{FnId, Guard, RpcRegistry};

/// Bind `f` at `id`: `FLAG_EPOCH` requests execute only while their tag
/// equals `epoch`, and `FLAG_STAMPED` responses carry `version`.
pub fn bind_guarded(
    registry: &RpcRegistry,
    id: FnId,
    epoch: u64,
    version: u64,
    f: impl Fn(u64) -> u64 + Send + Sync + 'static,
) {
    let epoch = Some(Arc::new(epoch.into()));
    let guard = Guard { epoch, version: Arc::new(move |_| version) };
    registry.bind_guarded(id, Some(guard), move |_, _, x: u64| f(x));
}
