"""Hierarchical modules.

A :class:`Module` is a named container of signals and processes, the
Python analogue of ``sc_module``.  Subclasses create signals and child
modules in ``__init__`` and register behaviour with :meth:`method` and
:meth:`thread`.
"""

from __future__ import annotations

from .errors import ElaborationError
from .signal import Signal


class Module:
    """Base class for hierarchical hardware models.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Instance name.  Hierarchical names are formed by joining parent
        and child names with ``.`` when a parent is supplied.
    parent:
        Optional enclosing :class:`Module`.
    """

    def __init__(self, sim, name, parent=None):
        self.sim = sim
        self.basename = name
        self.parent = parent
        self.children = []
        if parent is not None:
            if any(child.basename == name for child in parent.children):
                raise ElaborationError(
                    "duplicate child name %r under %r" % (name, parent.name)
                )
            parent.children.append(self)
            self.name = parent.name + "." + name
        else:
            self.name = name

    # -- construction helpers -------------------------------------------

    def signal(self, name, init=0, width=1):
        """Create a signal scoped under this module's name."""
        return Signal(self.sim, self.name + "." + name, init=init, width=width)

    def method(self, fn, sensitivity, name=None, initialize=True,
               writes=None):
        """Register a combinational method process on this module.

        ``writes`` optionally declares the signals the process may
        write (static-analysis metadata, see
        :meth:`~repro.kernel.simulator.Simulator.add_method`).
        """
        return self.sim.add_method(
            fn,
            sensitivity,
            name=self.name + "." + (name or fn.__name__),
            initialize=initialize,
            writes=writes,
        )

    def thread(self, generator_fn, name=None):
        """Register a thread process on this module."""
        return self.sim.add_thread(
            generator_fn, name=self.name + "." + (name or generator_fn.__name__)
        )

    # -- hierarchy walking ------------------------------------------------

    def iter_modules(self):
        """Yield this module and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_modules()

    def find(self, relative_name):
        """Return the descendant whose name relative to this module is
        ``relative_name`` (dot separated), or raise ``KeyError``."""
        target = self.name + "." + relative_name
        for module in self.iter_modules():
            if module.name == target:
                return module
        raise KeyError(relative_name)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


def unlink_trees(members):
    """Break the back-references of every module tree holding one of
    *members*, so the trees are freed by reference counting.

    A tree's back-references are each module's ``parent`` and every
    other attribute naming one of its ancestors (a bus's sub-blocks
    point at the bus); the parent's ``children`` lists are emptied
    too.  :meth:`Simulator.close` calls this once the design has run
    for the last time.
    """
    roots = {}
    for module in members:
        while module.parent is not None:
            module = module.parent
        roots[id(module)] = module
    for root in roots.values():
        _unlink(root, ())


def _unlink(module, ancestors):
    children = module.children
    module.children = []
    for name, value in list(vars(module).items()):
        if any(value is ancestor for ancestor in ancestors):
            setattr(module, name, None)
    ancestors += (module,)
    for child in children:
        _unlink(child, ancestors)
