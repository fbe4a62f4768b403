//! Offline stand-in for the one `crossbeam` item the BAYWATCH workspace
//! uses, `thread::scope`, implemented on `std::thread::scope`.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type Panic = Box<dyn Any + Send + 'static>;

    /// Scope handle passed to the `scope` closure and to every spawned
    /// closure (crossbeam's signature; the workspace ignores the latter).
    pub struct Scope<'scope, 'env> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Panic> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before return.
    /// `Err` carries the panic payload if `f` or an unjoined thread
    /// panicked, like crossbeam's.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Panic>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|inner| f(&Scope { inner }))
        }))
    }
}
