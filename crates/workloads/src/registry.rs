//! The one scheme × memory table, and the structure built over each node type.
//!
//! The Record Manager takes the reclamation scheme, the pool and the allocator as type
//! parameters, so swapping a scheme is a one-type change (paper §6).  Sweeps choose them
//! at run time, as a [`ReclaimerKind`] and an [`AllocatorKind`].
//! [`ReclaimerKind::dispatch`] is the only place where that choice becomes types: a caller
//! writes the work once, generically, as a [`Composition`], and the registry instantiates
//! it for the chosen scheme and memory configuration.  [`MapNode`] and [`BagNode`] name,
//! per node type, the structure the harnesses build over such a composition.

use std::sync::Arc;

use debra::{Allocator, AllocatorRequirement, Debra, DebraPlus, Pool, Reclaimer, RecordManager};
use lockfree_ds::{
    BstNode, ConcurrentBag, ConcurrentMap, ExternalBst, HarrisMichaelList, ListNode, SkipList,
    SkipNode,
};
use smr_alloc::{BumpAllocator, NoPool, SystemAllocator, ThreadPool};
use smr_baselines::{ClassicEbr, HazardPointers, NoReclaim, ThreadScanLite};
use smr_hashmap::{HashMapNode, LockFreeHashMap};
use smr_ibr::Ibr;
use smr_pagepool::{PageAllocator, PagePool};
use smr_queue::{MsQueue, QueueNode, StackNode, TreiberStack};
use smr_vbr::Vbr;

use crate::experiments::{AllocatorKind, ReclaimerKind};

/// Work to run over one Record Manager composition for records of type `T`; the scheme
/// `R`, the pool `P` and the allocator `A` are chosen by [`ReclaimerKind::dispatch`].
pub trait Composition<T: Send + 'static> {
    /// What the work returns.
    type Out;

    /// Runs the work.  `memory` names the configuration `P` and `A` form: the requested
    /// one, unless the registry had to move the scheme to type-stable memory.
    fn run<R: Reclaimer<T>, P: Pool<T>, A: Allocator<T>>(self, memory: AllocatorKind) -> Self::Out;
}

impl ReclaimerKind {
    /// Runs `c` with this scheme's reclaimer over the memory configuration `memory`.
    ///
    /// A scheme whose reads are machine-safe only over type-stable memory
    /// ([`AllocatorRequirement::TypeStable`]) runs on [`AllocatorKind::PagePool`] instead
    /// when `memory` is not type stable, with a note on stderr, so a sweep over
    /// [`ReclaimerKind::ALL`] never reaches the panic `RecordManager::new` raises for
    /// that pairing.
    pub fn dispatch<T: Send + 'static, C: Composition<T>>(
        self,
        memory: AllocatorKind,
        c: C,
    ) -> C::Out {
        match self {
            ReclaimerKind::None => with_memory::<T, NoReclaim<T>, C>(memory, c),
            ReclaimerKind::Debra => with_memory::<T, Debra<T>, C>(memory, c),
            ReclaimerKind::DebraPlus => with_memory::<T, DebraPlus<T>, C>(memory, c),
            ReclaimerKind::HazardPointers => with_memory::<T, HazardPointers<T>, C>(memory, c),
            ReclaimerKind::Ebr => with_memory::<T, ClassicEbr<T>, C>(memory, c),
            ReclaimerKind::ThreadScan => with_memory::<T, ThreadScanLite<T>, C>(memory, c),
            ReclaimerKind::Ibr => with_memory::<T, Ibr<T>, C>(memory, c),
            ReclaimerKind::Vbr => with_memory::<T, Vbr<T>, C>(memory, c),
        }
    }
}

/// The memory half of the table: the pool and allocator each configuration names.
fn with_memory<T, R, C>(memory: AllocatorKind, c: C) -> C::Out
where
    T: Send + 'static,
    R: Reclaimer<T>,
    C: Composition<T>,
{
    match memory {
        AllocatorKind::BumpNoPool => compose::<T, R, NoPool<T>, BumpAllocator<T>, C>(memory, c),
        AllocatorKind::BumpWithPool => {
            compose::<T, R, ThreadPool<T>, BumpAllocator<T>, C>(memory, c)
        }
        AllocatorKind::SystemNoPool => compose::<T, R, NoPool<T>, SystemAllocator<T>, C>(memory, c),
        AllocatorKind::SystemWithPool => {
            compose::<T, R, ThreadPool<T>, SystemAllocator<T>, C>(memory, c)
        }
        AllocatorKind::PagePool => compose::<T, R, PagePool<T>, PageAllocator<T>, C>(memory, c),
    }
}

/// Runs `c` over `R`/`P`/`A`, or over the page pool when `R` needs type-stable memory
/// and `A` is not.
fn compose<T, R, P, A, C>(memory: AllocatorKind, c: C) -> C::Out
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
    C: Composition<T>,
{
    if R::ALLOCATOR_REQUIREMENT == AllocatorRequirement::TypeStable && !A::TYPE_STABLE {
        eprintln!(
            "note: {} requires ALLOCATOR=pagepool; running it on pagepool instead of {}",
            R::name(),
            memory.name()
        );
        return c.run::<R, PagePool<T>, PageAllocator<T>>(AllocatorKind::PagePool);
    }
    c.run::<R, P, A>(memory)
}

/// Node types of the keyed-map structures, each naming the structure built over it.
pub trait MapNode: Send + Sized + 'static {
    /// The structure over a Record Manager of this node type.
    type Map<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>>: ConcurrentMap<u64, u64>;

    /// Builds an empty structure over `manager`.
    fn build<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>>(
        manager: Arc<RecordManager<Self, R, P, A>>,
    ) -> Self::Map<R, P, A>;
}

/// Node types of the bag-shaped structures, each naming the structure built over it.
pub trait BagNode: Send + Sized + 'static {
    /// The structure over a Record Manager of this node type.
    type Bag<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>>: ConcurrentBag<u64>;

    /// Builds an empty structure over `manager`.
    fn build<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>>(
        manager: Arc<RecordManager<Self, R, P, A>>,
    ) -> Self::Bag<R, P, A>;
}

/// `node_structure!(Trait::Assoc, Node => Structure<params>)` implements [`MapNode`] or
/// [`BagNode`] for `Node` with `Structure::new` as the constructor.
macro_rules! node_structure {
    ($tr:ident :: $assoc:ident, $node:ty => $ds:ident<$($param:ty),*>) => {
        impl $tr for $node {
            type $assoc<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>> =
                $ds<$($param,)* R, P, A>;

            fn build<R: Reclaimer<Self>, P: Pool<Self>, A: Allocator<Self>>(
                manager: Arc<RecordManager<Self, R, P, A>>,
            ) -> Self::$assoc<R, P, A> {
                $ds::new(manager)
            }
        }
    };
}

node_structure!(MapNode::Map, BstNode<u64, u64> => ExternalBst<u64, u64>);
node_structure!(MapNode::Map, SkipNode<u64, u64> => SkipList<u64, u64>);
node_structure!(MapNode::Map, HashMapNode<u64, u64> => LockFreeHashMap<u64, u64>);
node_structure!(MapNode::Map, ListNode<u64, u64> => HarrisMichaelList<u64, u64>);
node_structure!(BagNode::Bag, QueueNode<u64> => MsQueue<u64>);
node_structure!(BagNode::Bag, StackNode<u64> => TreiberStack<u64>);

#[cfg(test)]
mod tests {
    use std::any::type_name;
    use std::cell::Cell;
    use std::collections::HashSet;

    use super::*;

    /// What a dispatch reached, as seen from inside the composition.
    struct Reached {
        reclaimer: &'static str,
        pool: &'static str,
        allocator: &'static str,
        memory: AllocatorKind,
        needs_type_stable: bool,
        type_stable: bool,
    }

    /// Counts its runs and reports the types it ran with.
    struct Probe<'a>(&'a Cell<usize>);

    impl Composition<u64> for Probe<'_> {
        type Out = Reached;

        fn run<R: Reclaimer<u64>, P: Pool<u64>, A: Allocator<u64>>(
            self,
            memory: AllocatorKind,
        ) -> Reached {
            self.0.set(self.0.get() + 1);
            Reached {
                reclaimer: type_name::<R>(),
                pool: type_name::<P>(),
                allocator: type_name::<A>(),
                memory,
                needs_type_stable: R::ALLOCATOR_REQUIREMENT == AllocatorRequirement::TypeStable,
                type_stable: A::TYPE_STABLE,
            }
        }
    }

    /// The pool and allocator types each memory configuration stands for.
    fn memory_types(memory: AllocatorKind) -> (&'static str, &'static str) {
        match memory {
            AllocatorKind::BumpNoPool => {
                (type_name::<NoPool<u64>>(), type_name::<BumpAllocator<u64>>())
            }
            AllocatorKind::BumpWithPool => {
                (type_name::<ThreadPool<u64>>(), type_name::<BumpAllocator<u64>>())
            }
            AllocatorKind::SystemNoPool => {
                (type_name::<NoPool<u64>>(), type_name::<SystemAllocator<u64>>())
            }
            AllocatorKind::SystemWithPool => {
                (type_name::<ThreadPool<u64>>(), type_name::<SystemAllocator<u64>>())
            }
            AllocatorKind::PagePool => {
                (type_name::<PagePool<u64>>(), type_name::<PageAllocator<u64>>())
            }
        }
    }

    #[test]
    fn every_scheme_and_memory_pair_reaches_one_sound_composition() {
        let mut reclaimer_types = HashSet::new();
        for kind in ReclaimerKind::ALL {
            let mut kind_types = HashSet::new();
            for memory in AllocatorKind::ALL {
                let runs = Cell::new(0);
                let reached = kind.dispatch::<u64, _>(memory, Probe(&runs));
                assert_eq!(runs.get(), 1, "{kind:?} x {memory:?}: one composition runs");
                kind_types.insert(reached.reclaimer);
                assert_eq!(
                    (reached.pool, reached.allocator),
                    memory_types(reached.memory),
                    "{kind:?} x {memory:?}: the reported memory names the types that ran"
                );
                if reached.needs_type_stable {
                    // `RecordManager::new` panics on any other pairing.
                    assert!(reached.type_stable, "{kind:?} x {memory:?}");
                    assert_eq!(reached.memory, AllocatorKind::PagePool, "{kind:?} x {memory:?}");
                } else {
                    assert_eq!(reached.memory, memory, "{kind:?} gets the requested memory");
                }
                // The coercion branch is exercised: VBR is the type-stable scheme.
                assert_eq!(reached.needs_type_stable, kind == ReclaimerKind::Vbr);
            }
            assert_eq!(kind_types.len(), 1, "{kind:?} maps to one reclaimer type");
            reclaimer_types.extend(kind_types);
        }
        assert_eq!(reclaimer_types.len(), ReclaimerKind::ALL.len(), "{reclaimer_types:?}");
    }
}
