"""True positive for PDC103 on a derived communicator.

Every rank recv()s from its left neighbour on a periodic Cartesian ring
before it send()s to its right one: the same deadlock as ``pdc103_tp.py``,
written on ``cart`` instead of ``comm``.
"""

from repro.mpi import mpirun


def exchange(np: int = 2):
    def body(comm):
        cart = comm.Create_cart((comm.Get_size(),), periods=(True,))
        left, right = cart.Shift(0, 1)
        incoming = cart.recv(source=left, tag=1)  # all ranks block here
        cart.send(cart.Get_rank(), dest=right, tag=1)
        return incoming

    return mpirun(body, np)
