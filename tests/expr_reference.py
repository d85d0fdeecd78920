"""Reference interpreter of the expression language for the tests.

The package evaluates expressions only through compiled tapes
(``tractorlab.expr.compile_tape``).  The tests compare the tapes against
this recursive interpreter, which walks an AST over any algebra with the
``+ - * / **`` operators: floats, mpmath numbers or scalar jets.
"""

import math

from tractorlab.expr import Add, Call, Div, ExprError, Mul, Neg, Num, Pow, Sub, Var


def _math_call(func, value):
    return getattr(math, func)(value)


def evaluate(e, env, call=_math_call):
    """Evaluate an AST over any algebra with +, -, *, /, ** operators.

    ``env`` maps variable names to values; ``call`` dispatches function
    applications and defaults to the float functions of :mod:`math`.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprError(f"unknown identifier {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env, call)
    if isinstance(e, Add):
        return evaluate(e.left, env, call) + evaluate(e.right, env, call)
    if isinstance(e, Sub):
        return evaluate(e.left, env, call) - evaluate(e.right, env, call)
    if isinstance(e, Mul):
        return evaluate(e.left, env, call) * evaluate(e.right, env, call)
    if isinstance(e, Div):
        return evaluate(e.left, env, call) / evaluate(e.right, env, call)
    if isinstance(e, Pow):
        return evaluate(e.base, env, call) ** e.exponent
    if isinstance(e, Call):
        return call(e.func, evaluate(e.arg, env, call))
    raise TypeError(f"not an expression node: {e!r}")
