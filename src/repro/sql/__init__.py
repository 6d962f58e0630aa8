"""Extended SQL and DataFrame front end (the Spark SQL analogue)."""

from .ast import CreateIndex, Explain, Select
from .catalog import Catalog, Table
from .dataframe import TrajectoryFrame
from .lexer import tokenize
from .parser import parse
from .session import DITASession, ExplainAnalyzeResult
from .tokens import SQLError

__all__ = [
    "Catalog",
    "CreateIndex",
    "DITASession",
    "Explain",
    "ExplainAnalyzeResult",
    "SQLError",
    "Select",
    "Table",
    "TrajectoryFrame",
    "parse",
    "tokenize",
]
