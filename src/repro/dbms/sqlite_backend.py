"""A sqlite3-backed implementation of the table interface.

SAE's pitch is that the service provider can run an *unmodified,
off-the-shelf* DBMS because no authentication information ever touches the
query path.  To demonstrate that concretely, this module provides the same
table interface as :class:`repro.dbms.table.Table` backed by Python's
built-in :mod:`sqlite3`, with an index on the query attribute.  The SAE
service provider can be constructed with ``backend="sqlite"`` and the whole
protocol (including client verification against the TE's token) works
unchanged.

Node-access accounting is not available for SQLite (it does its own paging
internally), so this backend is used for functional demonstrations and
integration tests rather than for the cost figures.

Connections are opened with ``check_same_thread=False`` and every statement
runs under a lock, because the service provider's query leg runs on
whichever thread issued the query: any number of caller threads, or a
served deployment's executor threads.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.encoding import RecordCodec
from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery
from repro.dbms.table import TableError


def _column_affinity(value: Any) -> str:
    if isinstance(value, bool):
        return "INTEGER"
    if isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "REAL"
    if isinstance(value, (bytes, bytearray)):
        return "BLOB"
    return "TEXT"


class SQLiteTable:
    """A table stored in a sqlite3 database with an index on the key column."""

    def __init__(self, schema: TableSchema, connection: Optional[sqlite3.Connection] = None,
                 sample_record: Optional[Sequence[Any]] = None):
        self._schema = schema
        self._codec: RecordCodec = schema.codec()
        self._conn = connection or sqlite3.connect(":memory:", check_same_thread=False)
        self._conn_lock = threading.Lock()
        self._create(sample_record)

    def _create(self, sample_record: Optional[Sequence[Any]]) -> None:
        column_defs = []
        for position, column in enumerate(self._schema.columns):
            affinity = ""
            if sample_record is not None:
                affinity = " " + _column_affinity(sample_record[position])
            suffix = " PRIMARY KEY" if column == self._schema.id_column else ""
            column_defs.append(f'"{column}"{affinity}{suffix}')
        self._conn.execute(
            f'CREATE TABLE IF NOT EXISTS "{self._schema.name}" ({", ".join(column_defs)})'
        )
        self._conn.execute(
            f'CREATE INDEX IF NOT EXISTS "idx_{self._schema.name}_{self._schema.key_column}" '
            f'ON "{self._schema.name}" ("{self._schema.key_column}")'
        )
        self._conn.commit()

    # ------------------------------------------------------------------ meta
    @property
    def schema(self) -> TableSchema:
        """The table schema."""
        return self._schema

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying sqlite3 connection."""
        return self._conn

    @property
    def num_records(self) -> int:
        """Number of stored records."""
        with self._conn_lock:
            cursor = self._conn.execute(f'SELECT COUNT(*) FROM "{self._schema.name}"')
            return int(cursor.fetchone()[0])

    def size_bytes(self) -> int:
        """Approximate storage footprint reported by SQLite."""
        with self._conn_lock:
            page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
            page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
        return int(page_count) * int(page_size)

    def __len__(self) -> int:
        return self.num_records

    # ------------------------------------------------------------------ writes
    def insert(self, fields: Sequence[Any]) -> None:
        """Insert one record."""
        self._schema.validate_record(fields)
        placeholders = ", ".join("?" for _ in self._schema.columns)
        try:
            with self._conn_lock:
                self._conn.execute(
                    f'INSERT INTO "{self._schema.name}" VALUES ({placeholders})', tuple(fields)
                )
        except sqlite3.IntegrityError as exc:
            raise TableError(str(exc)) from exc

    def bulk_load(self, records: Sequence[Sequence[Any]]) -> None:
        """Insert many records inside a single transaction."""
        placeholders = ", ".join("?" for _ in self._schema.columns)
        try:
            with self._conn_lock, self._conn:
                self._conn.executemany(
                    f'INSERT INTO "{self._schema.name}" VALUES ({placeholders})',
                    [tuple(fields) for fields in records],
                )
        except sqlite3.IntegrityError as exc:
            raise TableError(str(exc)) from exc

    def delete(self, record_id: Any) -> None:
        """Delete the record with the given id."""
        with self._conn_lock:
            cursor = self._conn.execute(
                f'DELETE FROM "{self._schema.name}" WHERE "{self._schema.id_column}" = ?',
                (record_id,),
            )
        if cursor.rowcount == 0:
            raise TableError(f"no record with id {record_id!r}")

    def update(self, fields: Sequence[Any]) -> None:
        """Replace the record whose id column matches ``fields``."""
        self._schema.validate_record(fields)
        record_id = fields[self._schema.id_index]
        assignments = ", ".join(f'"{column}" = ?' for column in self._schema.columns)
        with self._conn_lock:
            cursor = self._conn.execute(
                f'UPDATE "{self._schema.name}" SET {assignments} '
                f'WHERE "{self._schema.id_column}" = ?',
                tuple(fields) + (record_id,),
            )
        if cursor.rowcount == 0:
            raise TableError(f"no record with id {record_id!r}")

    # ------------------------------------------------------------------ reads
    def get(self, record_id: Any) -> Tuple[Any, ...]:
        """Fetch a record by id."""
        with self._conn_lock:
            cursor = self._conn.execute(
                f'SELECT * FROM "{self._schema.name}" WHERE "{self._schema.id_column}" = ?',
                (record_id,),
            )
            row = cursor.fetchone()
        if row is None:
            raise TableError(f"no record with id {record_id!r}")
        return tuple(row)

    def range_query(self, query: RangeQuery, fetch_records: bool = True) -> List[Tuple[Any, ...]]:
        """Answer a range query on the key column, ordered by key."""
        columns = "*" if fetch_records else f'"{self._schema.key_column}", "{self._schema.id_column}"'
        with self._conn_lock:
            cursor = self._conn.execute(
                f'SELECT {columns} FROM "{self._schema.name}" '
                f'WHERE "{self._schema.key_column}" BETWEEN ? AND ? '
                f'ORDER BY "{self._schema.key_column}", "{self._schema.id_column}"',
                (query.low, query.high),
            )
            return [tuple(row) for row in cursor.fetchall()]

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over every record."""
        with self._conn_lock:
            rows = self._conn.execute(f'SELECT * FROM "{self._schema.name}"').fetchall()
        for row in rows:
            yield tuple(row)

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()


class SQLiteEngine:
    """A multi-table engine over a single sqlite3 connection."""

    def __init__(self, path: str = ":memory:"):
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._tables: dict = {}

    def create_table(self, schema: TableSchema,
                     sample_record: Optional[Sequence[Any]] = None) -> SQLiteTable:
        """Create (or open) a table for ``schema``."""
        if schema.name in self._tables:
            raise TableError(f"table {schema.name!r} already exists")
        table = SQLiteTable(schema, connection=self._conn, sample_record=sample_record)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> SQLiteTable:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"unknown table {name!r}") from None

    def close(self) -> None:
        """Close the shared connection."""
        self._conn.close()
