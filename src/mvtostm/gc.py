"""Garbage collection of version lists.

When collection is enabled, every version tuple carries nts, the
timestamp of the next committed writer of the same object. A version is
garbage once a newer version exists (nts is set) and no live transaction
has a timestamp strictly between the two: no current reader can still
target it, and every future transaction draws a timestamp above nts.

Collection runs inside commit, while the committing transaction still
holds the object's lock, and takes the registry's live-transaction lock
last. That lock is deliberately left held on return; the enclosing
commit removes its own id under the same hold and then releases it.
"""

from __future__ import annotations


def insert_tuple(tobj, vt, threshold: int, registry, live_lock_held: bool) -> bool:
    """Insert a freshly committed version and maintain the nts chain.

    The new tuple inherits its predecessor's nts, and the predecessor's
    nts is redirected to the new timestamp, so the chain always links
    each surviving version to the next surviving one. When the list has
    grown past the threshold, the object is collected.

    Caller holds the object's lock. Returns True when the registry's
    live lock is held on return.
    """
    prev = tobj.find(vt.ts)
    vt.nts = prev.nts
    prev.nts = vt.ts
    tobj.insert_version(vt)
    if registry._recorder is not None:
        registry._recorder.on_version_insert(tobj.object_id, vt.ts)
    if len(tobj.versions) > threshold:
        return collect(tobj, registry, live_lock_held)
    return live_lock_held


def collect(tobj, registry, live_lock_held: bool = False) -> bool:
    """Delete every version of tobj that no transaction can ever read again.

    A tuple t is dropped iff t.nts is set and no live timestamp j
    satisfies t.ts < j < t.nts. The newest version (nts unset) is never
    dropped. On deletion the surviving predecessor's nts is redirected to
    the deleted tuple's nts, keeping the chain closed over survivors.

    Caller holds the object's lock. The registry live lock is acquired
    here (unless already held) and stays held on return. If the sweep
    raises, a live lock acquired here is released first.
    """
    if not live_lock_held:
        registry._acquire(registry._live_lock, registry._live_rank)
    live = registry._live
    survivors = []
    try:
        for vt in tobj.versions:
            if vt.nts is not None and not any(vt.ts < j < vt.nts for j in live):
                tobj.gc_deleted += 1
                if registry._recorder is not None:
                    registry._recorder.on_version_delete(tobj.object_id, vt.ts)
                if survivors:
                    survivors[-1].nts = vt.nts
            else:
                survivors.append(vt)
        tobj.versions = survivors
    except BaseException:
        if not live_lock_held:
            registry._release(registry._live_lock, registry._live_rank)
        raise
    return True
