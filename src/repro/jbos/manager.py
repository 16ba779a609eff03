"""The bunch: the five native daemons, and a manager to run them over
one shared store.

Each daemon is a listener (:class:`~repro.jbos.base.NativeServer`)
whose connections run one protocol's session from :mod:`repro.protocols`
over the flat store -- nothing else distinguishes them.
"""

from __future__ import annotations

from repro.jbos.base import NativeConnection, NativeServer
from repro.jbos.store import SimpleStore
from repro.jbos.throttle import Throttle
from repro.nest.auth import CertificateAuthority, GSIContext
from repro.protocols import chirp, ftp, gridftp, http, nfs


class NativeChirpd(NativeServer):
    """A minimal standalone Chirp file server.

    Chirp has no "native" third-party implementation -- it is NeST's
    own protocol -- so the bunch carries this bare file server: file
    and directory operations only, no lots, no ACLs, no authentication.
    Its existence makes the single-protocol Chirp comparison in Fig. 3
    meaningful.
    """

    class Connection(chirp.ChirpSession, NativeConnection):
        pass


class NativeHttpd(NativeServer):
    """The native HTTP daemon ("Apache" in Fig. 3's JBOS bars)."""

    class Connection(http.HttpSession, NativeConnection):
        pass


class NativeFtpd(NativeServer):
    """The native FTP daemon ("wu-ftpd" in Fig. 3's JBOS bars)."""

    class Connection(ftp.FtpSession, NativeConnection):
        greeting = "wu-ftpd (repro) ready"


class NativeGridFtpd(NativeServer):
    """The native GridFTP daemon (the Globus wuftpd derivative of
    2001): the FTP session plus GSI authentication and extended-block
    mode, against its own certificate authority."""

    class Connection(gridftp.GridFtpSession, NativeConnection):
        greeting = "globus-gridftp (repro) ready"

    def __init__(self, *args, ca: CertificateAuthority | None = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.gsi = GSIContext(ca or CertificateAuthority())


class NativeNfsd(NativeServer):
    """The native NFS daemon ("Linux nfsd" in Fig. 3's JBOS bars)."""

    class Connection(nfs.NfsSession, NativeConnection):
        pass


_SERVER_CLASSES = {
    cls.Connection.protocol: cls
    for cls in (NativeChirpd, NativeHttpd, NativeFtpd, NativeGridFtpd,
                NativeNfsd)
}


class JbosManager:
    """Start/stop a bunch of native servers sharing one store.

    The manager exists purely for operator convenience -- it is *not* a
    coordination layer.  The servers stay fully independent, which is
    exactly the property the paper's JBOS comparison isolates.
    """

    def __init__(
        self,
        protocols: tuple[str, ...] = ("chirp", "http", "ftp", "gridftp", "nfs"),
        store: SimpleStore | None = None,
        host: str = "127.0.0.1",
        throttles: dict[str, Throttle] | None = None,
        ca: CertificateAuthority | None = None,
    ):
        self.store = store if store is not None else SimpleStore()
        self.host = host
        self.servers: dict[str, object] = {}
        throttles = throttles or {}
        for proto in protocols:
            cls = _SERVER_CLASSES.get(proto)
            if cls is None:
                raise ValueError(f"no native server for {proto!r}")
            kwargs = dict(store=self.store, host=host,
                          throttle=throttles.get(proto))
            if proto == "gridftp":
                kwargs["ca"] = ca
            self.servers[proto] = cls(**kwargs)

    @property
    def ports(self) -> dict[str, int]:
        """Bound port per protocol (after start)."""
        return {proto: srv.port for proto, srv in self.servers.items()}

    def start(self) -> "JbosManager":
        for server in self.servers.values():
            server.start()
        return self

    def stop(self) -> None:
        for server in self.servers.values():
            server.stop()

    def __enter__(self) -> "JbosManager":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
