//! Registration helper shared by the envelope tests: bind a `u64 -> u64`
//! function behind an ownership-epoch gate.

use std::sync::Arc;

use hcl_rpc::{FnId, RpcRegistry};

/// Bind `f` at `id`: `FLAG_EPOCH` requests execute only while their tag
/// equals `epoch`.
pub fn bind_guarded(
    registry: &RpcRegistry,
    id: FnId,
    epoch: u64,
    f: impl Fn(u64) -> u64 + Send + Sync + 'static,
) {
    registry.bind_guarded(id, Some(Arc::new(epoch.into())), move |_, _, x: u64| f(x));
}
