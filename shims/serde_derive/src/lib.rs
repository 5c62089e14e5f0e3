//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the shim `serde` crate's `Value`-tree traits. Because `syn`/`quote`
//! are unavailable offline, the item is parsed directly from the
//! `proc_macro` token stream. Supported shapes — exactly what the
//! workspace derives on:
//!
//! * structs with named fields,
//! * tuple structs (single-field newtypes serialize transparently),
//! * unit structs,
//! * enums with unit, newtype, tuple and struct variants
//!   (externally tagged, like real serde's default representation).
//!
//! Generic types and serde field attributes are not supported and panic
//! at expansion time with a clear message.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// The parsed shape of the deriving item.
struct Input {
    name: String,
    kind: Kind,
}

enum Kind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum VariantFields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("serialize impl parses")
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("deserialize impl parses")
}

// --- parsing -------------------------------------------------------------

fn parse_item(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    let kw = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, found {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    let kind = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g))
            }
            _ => Kind::UnitStruct,
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g))
            }
            other => panic!("serde shim derive: malformed enum body: {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    };

    Input { name, kind }
}

/// Advance past `#[...]` attributes and `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    toks.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Skip a type, stopping after the `,` (if any) that terminates the field.
/// Tracks `<...>` nesting so commas inside generic arguments don't split.
fn skip_type_and_comma(toks: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(g: &Group) -> Vec<String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected field name, found {other}"),
        };
        i += 1; // name
        i += 1; // ':'
        skip_type_and_comma(&toks, &mut i);
        fields.push(name);
    }
    fields
}

fn count_tuple_fields(g: &Group) -> usize {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut i = 0;
    let mut count = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_type_and_comma(&toks, &mut i);
        count += 1;
    }
    count
}

fn parse_variants(g: &Group) -> Vec<Variant> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, found {other}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantFields::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantFields::Tuple(count_tuple_fields(g))
            }
            _ => VariantFields::Unit,
        };
        // Skip any discriminant up to the separating comma.
        while i < toks.len() && !matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1;
        variants.push(Variant { name, fields });
    }
    variants
}

// --- codegen -------------------------------------------------------------

fn gen_serialize(item: &Input) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Obj(::std::vec![{}])", entries.join(", "))
        }
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect();
            format!("::serde::Value::Arr(::std::vec![{}])", items.join(", "))
        }
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| ser_variant_arm(name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn ser_variant_arm(ty: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.fields {
        VariantFields::Unit => {
            format!("{ty}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),")
        }
        VariantFields::Named(fields) => {
            let binds = fields.join(", ");
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value({f}))"
                    )
                })
                .collect();
            format!(
                "{ty}::{vn} {{ {binds} }} => ::serde::Value::Obj(::std::vec![\
                   (::std::string::String::from(\"{vn}\"), \
                    ::serde::Value::Obj(::std::vec![{}]))]),",
                entries.join(", ")
            )
        }
        VariantFields::Tuple(1) => format!(
            "{ty}::{vn}(f0) => ::serde::Value::Obj(::std::vec![\
               (::std::string::String::from(\"{vn}\"), \
                ::serde::Serialize::to_value(f0))]),"
        ),
        VariantFields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
            let items: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Serialize::to_value(f{k})"))
                .collect();
            format!(
                "{ty}::{vn}({}) => ::serde::Value::Obj(::std::vec![\
                   (::std::string::String::from(\"{vn}\"), \
                    ::serde::Value::Arr(::std::vec![{}]))]),",
                binds.join(", "),
                items.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Input) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("{f}: ::serde::Deserialize::from_value(v.field(\"{f}\", \"{name}\")?)?")
                })
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Kind::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::TupleStruct(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::from_value(&arr[{k}])?"))
                .collect();
            format!(
                "let arr = v.as_arr().ok_or_else(|| \
                   ::serde::DeError::new(\"expected array for {name}\"))?;\n\
                 if arr.len() != {n} {{ return ::std::result::Result::Err(\
                   ::serde::DeError::new(\"wrong tuple arity for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                inits.join(", ")
            )
        }
        Kind::UnitStruct => {
            format!("let _ = v; ::std::result::Result::Ok({name})")
        }
        Kind::Enum(variants) => gen_deserialize_enum(name, variants),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn from_value(v: &::serde::Value) -> \
             ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize_enum(ty: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.fields, VariantFields::Unit))
        .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({ty}::{0}),", v.name))
        .collect();
    let tagged_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let vn = &v.name;
            match &v.fields {
                VariantFields::Unit => None,
                VariantFields::Named(fields) => {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(\
                                 inner.field(\"{f}\", \"{ty}::{vn}\")?)?"
                            )
                        })
                        .collect();
                    Some(format!(
                        "\"{vn}\" => ::std::result::Result::Ok({ty}::{vn} {{ {} }}),",
                        inits.join(", ")
                    ))
                }
                VariantFields::Tuple(1) => Some(format!(
                    "\"{vn}\" => ::std::result::Result::Ok(\
                       {ty}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                )),
                VariantFields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Deserialize::from_value(&arr[{k}])?"))
                        .collect();
                    Some(format!(
                        "\"{vn}\" => {{\n\
                           let arr = inner.as_arr().ok_or_else(|| \
                             ::serde::DeError::new(\"expected array for {ty}::{vn}\"))?;\n\
                           if arr.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::DeError::new(\"wrong arity for {ty}::{vn}\")); }}\n\
                           ::std::result::Result::Ok({ty}::{vn}({}))\n\
                         }},",
                        inits.join(", ")
                    ))
                }
            }
        })
        .collect();

    format!(
        "if let ::std::option::Option::Some(s) = v.as_str() {{\n\
           return match s {{\n{units}\n\
             other => ::std::result::Result::Err(::serde::DeError::new(\
               ::std::format!(\"unknown {ty} variant `{{other}}`\"))),\n\
           }};\n\
         }}\n\
         let obj = v.as_obj().ok_or_else(|| \
           ::serde::DeError::new(\"expected string or object for {ty}\"))?;\n\
         if obj.len() != 1 {{ return ::std::result::Result::Err(\
           ::serde::DeError::new(\"expected single-key object for {ty}\")); }}\n\
         let (tag, inner) = &obj[0];\n\
         let _ = inner;\n\
         match tag.as_str() {{\n{tags}\n\
           other => ::std::result::Result::Err(::serde::DeError::new(\
             ::std::format!(\"unknown {ty} variant `{{other}}`\"))),\n\
         }}",
        units = unit_arms.join("\n"),
        tags = tagged_arms.join("\n"),
    )
}
