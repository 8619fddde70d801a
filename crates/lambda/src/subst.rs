//! Masked substitution `M[x := V]` (Fig. 17).
//!
//! Substitution under a binder whose body is conclaved to `p⁺` first
//! masks the substituted value to `p⁺`; if the value does not mask, the
//! (necessarily unused — see Lemma 3) variable is left alone.

use crate::mask::mask_value;
use crate::syntax::{Expr, Value, Var};

/// `M[x := V]`.
pub fn subst_expr(expr: &Expr, x: &Var, v: &Value) -> Expr {
    match expr {
        Expr::Val(value) => Expr::Val(subst_value(value, x, v)),
        Expr::App(f, a) => Expr::app(subst_expr(f, x, v), subst_expr(a, x, v)),
        Expr::Case { parties, scrutinee, left_var, left, right_var, right } => {
            let scrutinee = Box::new(subst_expr(scrutinee, x, v));
            // The branches are conclaved to `parties`: substitute the
            // masked value, and only if masking is defined.
            let masked = mask_value(v, parties);
            let subst_branch = |binder: &Var, body: &Expr| -> Expr {
                if binder == x {
                    body.clone() // shadowed
                } else {
                    match &masked {
                        Some(mv) => subst_expr(body, x, mv),
                        None => body.clone(),
                    }
                }
            };
            Expr::Case {
                parties: parties.clone(),
                scrutinee,
                left_var: left_var.clone(),
                left: Box::new(subst_branch(left_var, left)),
                right_var: right_var.clone(),
                right: Box::new(subst_branch(right_var, right)),
            }
        }
    }
}

/// `V'[x := V]` on values.
pub fn subst_value(value: &Value, x: &Var, v: &Value) -> Value {
    match value {
        Value::Var(y) => {
            if y == x {
                v.clone()
            } else {
                value.clone()
            }
        }
        Value::Lambda { param, param_ty, body, parties } => {
            if param == x {
                value.clone() // shadowed
            } else {
                match mask_value(v, parties) {
                    Some(masked) => Value::Lambda {
                        param: param.clone(),
                        param_ty: param_ty.clone(),
                        body: Box::new(subst_expr(body, x, &masked)),
                        parties: parties.clone(),
                    },
                    // Fig. 17: if V does not mask to p⁺ the substitution
                    // is a no-op (x cannot occur with a usable type).
                    None => value.clone(),
                }
            }
        }
        Value::Inl(inner) => Value::Inl(Box::new(subst_value(inner, x, v))),
        Value::Inr(inner) => Value::Inr(Box::new(subst_value(inner, x, v))),
        Value::Pair(l, r) => {
            Value::Pair(Box::new(subst_value(l, x, v)), Box::new(subst_value(r, x, v)))
        }
        Value::Tuple(vs) => Value::Tuple(vs.iter().map(|w| subst_value(w, x, v)).collect()),
        Value::Unit(_)
        | Value::Fst(_)
        | Value::Snd(_)
        | Value::Lookup(_, _)
        | Value::Com { .. } => value.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parties;
    use crate::syntax::{Data, Type};

    fn var(x: &str) -> Expr {
        Expr::Val(Value::Var(x.into()))
    }

    #[test]
    fn variables_are_replaced() {
        let v = Value::Unit(parties![0]);
        assert_eq!(subst_expr(&var("x"), &"x".into(), &v), Expr::Val(v.clone()));
        assert_eq!(subst_expr(&var("y"), &"x".into(), &v), var("y"));
    }

    #[test]
    fn lambda_binders_shadow() {
        let lam = Value::lambda("x", Type::data(Data::Unit, parties![0]), var("x"), parties![0]);
        let out = subst_value(&lam, &"x".into(), &Value::Unit(parties![0]));
        assert_eq!(out, lam);
    }

    #[test]
    fn substitution_under_lambda_masks_the_value() {
        // λy. x  with x := ()@{0,1}, lambda at {0}: x becomes ()@{0}.
        let lam = Value::lambda("y", Type::data(Data::Unit, parties![0]), var("x"), parties![0]);
        let out = subst_value(&lam, &"x".into(), &Value::Unit(parties![0, 1]));
        match out {
            Value::Lambda { body, .. } => {
                assert_eq!(*body, Expr::Val(Value::Unit(parties![0])));
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn unmaskable_values_leave_the_body_alone() {
        // The lambda lives at {1}; ()@{0} cannot mask there.
        let lam = Value::lambda("y", Type::data(Data::Unit, parties![1]), var("x"), parties![1]);
        let out = subst_value(&lam, &"x".into(), &Value::Unit(parties![0]));
        assert_eq!(out, lam);
    }

    #[test]
    fn case_branches_shadow_and_mask() {
        let case = Expr::case(
            parties![0],
            var("x"),
            "x",
            var("x"), // shadowed by the binder
            "z",
            var("x"), // substituted (masked)
        );
        let out = subst_expr(&case, &"x".into(), &Value::Unit(parties![0, 1]));
        match out {
            Expr::Case { scrutinee, left, right, .. } => {
                assert_eq!(*scrutinee, Expr::Val(Value::Unit(parties![0, 1])));
                assert_eq!(*left, var("x"));
                assert_eq!(*right, Expr::Val(Value::Unit(parties![0])));
            }
            other => panic!("expected case, got {other:?}"),
        }
    }
}
