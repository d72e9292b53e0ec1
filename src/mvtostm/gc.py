"""Garbage collection of version lists.

A version is garbage once a newer version follows it in the object's
list and no live transaction has a timestamp strictly between the two:
no current reader can still target it, and every future transaction
draws a timestamp above the newer one.

Collection runs inside commit, while the committing transaction holds
the object's lock and the registry's live lock, so it takes no lock of
its own. The committer has left the live set by then, which changes
no deletion: its id is the new version's timestamp, so it never lies
strictly inside a window of the object.
"""

from __future__ import annotations


def insert_tuple(tobj, threshold: int, registry) -> None:
    """The gc half of installing a version on tobj.

    Called once the new version is in the list; collects the object
    when the list has grown past the threshold.
    """
    if len(tobj.versions) > threshold:
        collect(tobj, registry)


def collect(tobj, registry) -> None:
    """Delete every version of tobj that no transaction can ever read again.

    A version is dropped iff a newer version follows it and no live
    timestamp j satisfies version.ts < j < next.ts. The newest version
    is never dropped.

    Caller holds the object's lock and the registry's live lock.
    """
    live = registry._live
    versions = tobj.versions
    survivors = []
    for vt, nxt in zip(versions, versions[1:]):
        if any(vt.ts < j < nxt.ts for j in live):
            survivors.append(vt)
        else:
            tobj.gc_deleted += 1
            if registry._recorder is not None:
                registry._recorder.on_version_delete(tobj.object_id, vt.ts)
    survivors.append(versions[-1])
    tobj.versions = survivors
