//! C ABI for the checkpoint library.
//!
//! The paper's user library "provides Fortran and C/C++ interfaces" so
//! HPC codes can adopt NVM checkpointing with minimal changes. This
//! module exports the Table-III surface over a stable `extern "C"`
//! ABI: an opaque context handle, `u64` chunk ids (`nv_genid` output),
//! and integer status codes. Fortran binds to the same symbols via
//! `iso_c_binding`.
//!
//! Conventions:
//! * functions returning `i32` yield `0` on success, negative on error
//!   (the message is retrievable with [`nvm_last_error`]);
//! * functions returning `u64` ids yield `0` on error;
//! * all pointers must be valid for the stated lengths; `name` strings
//!   are NUL-terminated UTF-8.

use crate::config::EngineConfig;
use crate::engine::CheckpointEngine;
use crate::restart::RestartStrategy;
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use nvm_paging::ChunkId;
use nvm_trace::Tracer;
use std::cell::RefCell;
use std::ffi::{c_char, CStr};

thread_local! {
    static LAST_ERROR: RefCell<String> = const { RefCell::new(String::new()) };
}

fn set_error(msg: impl ToString) {
    LAST_ERROR.with(|e| *e.borrow_mut() = msg.to_string());
}

/// Collapse a `Result` into the C status convention: `0` on success,
/// `-1` with the error recorded for [`nvm_last_error`] otherwise.
fn status<T>(res: Result<T, impl ToString>) -> i32 {
    match res {
        Ok(_) => 0,
        Err(e) => {
            set_error(e);
            -1
        }
    }
}

/// Collapse a `Result<ChunkId>` into the C id convention: the raw id
/// on success, `0` with the error recorded otherwise.
fn id_status(res: Result<ChunkId, impl ToString>) -> u64 {
    match res {
        Ok(id) => id.0,
        Err(e) => {
            set_error(e);
            0
        }
    }
}

/// Opaque context: one emulated node + one checkpoint engine.
pub struct NvmCtx {
    dram: MemoryDevice,
    nvm: MemoryDevice,
    clock: VirtualClock,
    engine: CheckpointEngine,
}

/// Length of the last error message on this thread (bytes, no NUL).
///
/// # Safety
/// Always safe; exported for symmetry with [`nvm_last_error`].
#[no_mangle]
pub extern "C" fn nvm_last_error_len() -> usize {
    LAST_ERROR.with(|e| e.borrow().len())
}

/// Copy the last error message into `buf` (up to `len` bytes, no NUL
/// terminator added). Returns the number of bytes written.
///
/// # Safety
/// `buf` must be valid for `len` bytes.
#[no_mangle]
pub unsafe extern "C" fn nvm_last_error(buf: *mut u8, len: usize) -> usize {
    LAST_ERROR.with(|e| {
        let msg = e.borrow();
        let n = msg.len().min(len);
        if n > 0 && !buf.is_null() {
            std::ptr::copy_nonoverlapping(msg.as_ptr(), buf, n);
        }
        n
    })
}

/// Open a context: an emulated node with `dram_bytes` of DRAM,
/// `nvm_bytes` of PCM, and a per-process NVM container of
/// `container_bytes`. Returns NULL on failure.
///
/// # Safety
/// The returned pointer must be released with [`nvm_close`].
#[no_mangle]
pub extern "C" fn nvm_open(
    process_id: u64,
    dram_bytes: usize,
    nvm_bytes: usize,
    container_bytes: usize,
) -> *mut NvmCtx {
    let dram = MemoryDevice::dram(dram_bytes);
    let nvm = MemoryDevice::pcm(nvm_bytes);
    let clock = VirtualClock::new();
    match CheckpointEngine::new(
        process_id,
        &dram,
        &nvm,
        container_bytes,
        clock.clone(),
        EngineConfig::default(),
    ) {
        Ok(engine) => Box::into_raw(Box::new(NvmCtx {
            dram,
            nvm,
            clock,
            engine,
        })),
        Err(e) => {
            set_error(e);
            std::ptr::null_mut()
        }
    }
}

/// Close a context and free its resources.
///
/// # Safety
/// `ctx` must be a pointer returned by [`nvm_open`] (or
/// [`nvm_simulate_restart`]) and not already closed.
#[no_mangle]
pub unsafe extern "C" fn nvm_close(ctx: *mut NvmCtx) {
    if !ctx.is_null() {
        drop(Box::from_raw(ctx));
    }
}

unsafe fn ctx_mut<'a>(ctx: *mut NvmCtx) -> Option<&'a mut NvmCtx> {
    if ctx.is_null() {
        set_error("null context");
        None
    } else {
        Some(&mut *ctx)
    }
}

unsafe fn name_str<'a>(name: *const c_char) -> Option<&'a str> {
    if name.is_null() {
        set_error("null name");
        return None;
    }
    match CStr::from_ptr(name).to_str() {
        Ok(s) => Some(s),
        Err(_) => {
            set_error("name is not valid UTF-8");
            None
        }
    }
}

/// `genid(varname)` — stable chunk id from a variable name.
///
/// # Safety
/// `name` must be a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn nv_genid(name: *const c_char) -> u64 {
    match name_str(name) {
        Some(s) => nvm_paging::genid(s).0,
        None => 0,
    }
}

/// `nvalloc(id, size, pflg)` — allocate a chunk; returns its id, 0 on
/// error.
///
/// # Safety
/// `ctx` must be a live context; `name` a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn nvalloc(
    ctx: *mut NvmCtx,
    name: *const c_char,
    size: usize,
    pflg: i32,
) -> u64 {
    let (Some(c), Some(n)) = (ctx_mut(ctx), name_str(name)) else {
        return 0;
    };
    id_status(c.engine.nvmalloc(n, size, pflg != 0))
}

/// `nv2dalloc(dim1, dim2)` — 2-D allocation wrapper (8-byte elements,
/// matching the Fortran `real*8` arrays it exists for).
///
/// # Safety
/// Same contract as [`nvalloc`].
#[no_mangle]
pub unsafe extern "C" fn nv2dalloc(
    ctx: *mut NvmCtx,
    name: *const c_char,
    dim1: usize,
    dim2: usize,
) -> u64 {
    let (Some(c), Some(n)) = (ctx_mut(ctx), name_str(name)) else {
        return 0;
    };
    id_status(c.engine.nv2dalloc(n, dim1, dim2, 8, true))
}

/// Write `len` bytes at `offset` into a chunk's working copy.
///
/// # Safety
/// `ctx` live; `data` valid for `len` bytes.
#[no_mangle]
pub unsafe extern "C" fn nvwrite(
    ctx: *mut NvmCtx,
    id: u64,
    offset: usize,
    data: *const u8,
    len: usize,
) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    if data.is_null() && len > 0 {
        set_error("null data");
        return -1;
    }
    let slice = std::slice::from_raw_parts(data, len);
    status(c.engine.write(ChunkId(id), offset, slice))
}

/// Read `len` bytes at `offset` from a chunk's working copy.
///
/// # Safety
/// `ctx` live; `buf` valid for `len` bytes.
#[no_mangle]
pub unsafe extern "C" fn nvread(
    ctx: *mut NvmCtx,
    id: u64,
    offset: usize,
    buf: *mut u8,
    len: usize,
) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    if buf.is_null() && len > 0 {
        set_error("null buffer");
        return -1;
    }
    let slice = std::slice::from_raw_parts_mut(buf, len);
    status(c.engine.read(ChunkId(id), offset, slice))
}

/// Model a compute phase of `seconds` of virtual time (background
/// pre-copy runs inside).
///
/// # Safety
/// `ctx` must be live.
#[no_mangle]
pub unsafe extern "C" fn nvcompute(ctx: *mut NvmCtx, seconds: f64) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    if seconds < 0.0 || !seconds.is_finite() {
        set_error("invalid duration");
        return -1;
    }
    c.engine.compute(SimDuration::from_secs_f64(seconds));
    0
}

/// `nvchkptall()` — coordinated checkpoint of every persistent chunk.
///
/// # Safety
/// `ctx` must be live.
#[no_mangle]
pub unsafe extern "C" fn nvchkptall(ctx: *mut NvmCtx) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    status(c.engine.nvchkptall())
}

/// `nvchkptid(id)` — checkpoint one chunk.
///
/// # Safety
/// `ctx` must be live.
#[no_mangle]
pub unsafe extern "C" fn nvchkptid(ctx: *mut NvmCtx, id: u64) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    status(c.engine.nvchkptid(ChunkId(id)))
}

/// `nvdelete(id)` — drop a chunk.
///
/// # Safety
/// `ctx` must be live.
#[no_mangle]
pub unsafe extern "C" fn nvdelete(ctx: *mut NvmCtx, id: u64) -> i32 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    status(c.engine.nvdelete(ChunkId(id)))
}

/// Simulate a process crash + restart on the same node: the context's
/// engine is torn down and rebuilt from the persistent metadata region
/// (the emulated NVM survives inside the context). Returns the number
/// of chunks restored, or negative on error.
///
/// # Safety
/// `ctx` must be live; on success its previous chunk working copies
/// are gone (as after a real crash).
#[no_mangle]
pub unsafe extern "C" fn nvm_simulate_restart(ctx: *mut NvmCtx) -> i64 {
    let Some(c) = ctx_mut(ctx) else { return -1 };
    let region = c.engine.metadata_region();
    // Build the replacement engine before dropping the old one.
    let rebuilt = CheckpointEngine::restart(
        &c.dram,
        &c.nvm,
        region,
        c.clock.clone(),
        *c.engine.config(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    );
    match rebuilt {
        Ok((engine, report)) => {
            c.engine = engine;
            report.restored.len() as i64
        }
        Err(e) => {
            set_error(e);
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    #[test]
    fn full_c_lifecycle() {
        unsafe {
            let ctx = nvm_open(7, 64 << 20, 64 << 20, 32 << 20);
            assert!(!ctx.is_null());

            let name = CString::new("ions").unwrap();
            let id = nvalloc(ctx, name.as_ptr(), 4096, 1);
            assert_ne!(id, 0);
            assert_eq!(id, nv_genid(name.as_ptr()), "nvalloc uses genid");

            let data = vec![42u8; 4096];
            assert_eq!(nvwrite(ctx, id, 0, data.as_ptr(), data.len()), 0);
            assert_eq!(nvcompute(ctx, 1.0), 0);
            assert_eq!(nvchkptall(ctx), 0);

            // Clobber, crash, restart, verify.
            let junk = vec![0u8; 4096];
            assert_eq!(nvwrite(ctx, id, 0, junk.as_ptr(), junk.len()), 0);
            let restored = nvm_simulate_restart(ctx);
            assert_eq!(restored, 1);
            let mut buf = vec![0u8; 4096];
            assert_eq!(nvread(ctx, id, 0, buf.as_mut_ptr(), buf.len()), 0);
            assert_eq!(buf, data);

            assert_eq!(nvdelete(ctx, id), 0);
            nvm_close(ctx);
        }
    }

    #[test]
    fn errors_set_message_and_codes() {
        unsafe {
            let ctx = nvm_open(1, 16 << 20, 16 << 20, 8 << 20);
            // Unknown chunk.
            assert_eq!(nvchkptid(ctx, 999), -1);
            assert!(nvm_last_error_len() > 0);
            let mut buf = vec![0u8; 256];
            let n = nvm_last_error(buf.as_mut_ptr(), buf.len());
            let msg = std::str::from_utf8(&buf[..n]).unwrap();
            assert!(msg.contains("no"), "msg: {msg}");

            // Null pointers.
            assert_eq!(nvwrite(ctx, 1, 0, std::ptr::null(), 8), -1);
            assert_eq!(nvalloc(ctx, std::ptr::null(), 8, 1), 0);
            assert_eq!(nv_genid(std::ptr::null()), 0);
            assert_eq!(nvcompute(ctx, f64::NAN), -1);

            // Null context is rejected everywhere.
            assert_eq!(nvchkptall(std::ptr::null_mut()), -1);
            assert_eq!(nvm_simulate_restart(std::ptr::null_mut()), -1);
            nvm_close(ctx);
            nvm_close(std::ptr::null_mut()); // harmless
        }
    }

    #[test]
    fn two_d_alloc_sizes_like_fortran() {
        unsafe {
            let ctx = nvm_open(1, 64 << 20, 64 << 20, 32 << 20);
            let name = CString::new("phi").unwrap();
            let id = nv2dalloc(ctx, name.as_ptr(), 100, 50);
            assert_ne!(id, 0);
            // 100 x 50 real*8 = 40000 bytes: offset 39992 is writable,
            // 40000 is not.
            let v = [1u8; 8];
            assert_eq!(nvwrite(ctx, id, 39992, v.as_ptr(), 8), 0);
            assert_eq!(nvwrite(ctx, id, 40000, v.as_ptr(), 8), -1);
            nvm_close(ctx);
        }
    }
}
