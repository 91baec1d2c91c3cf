//! Lexer edge cases: strings, raw strings, chars vs lifetimes, nested
//! cfg(test) modules and macro bodies. Only the marked lines may fire.

pub fn strings() -> String {
    let a = "v.iter().sum() and Result<(), String> inside a plain string";
    let b = r#"raw: v.product() and "quoted" Result<u8, String>"#;
    let c = r##"nested r#"hash"# raw"##;
    format!("{a}{b}{c}")
}

pub fn chars_and_lifetimes<'a>(x: &'a [u32]) -> Option<&'a u32> {
    let _open_bracket = '[';
    let _escaped_quote = '\'';
    let _unicode = '\u{1F600}';
    x.first()
}

pub fn numbers(v: &[f32]) -> f32 {
    let m = 1.0f32.max(2.0);
    let r = (0..10).count() as f32;
    m + r + v.iter().copied().fold(0.0f32, f32::max)
}

//// A plain divider comment mentioning .sum() and Result<(), String>.

macro_rules! in_macro_body {
    ($v:expr) => {
        $v.iter().sum()
    };
}

#[cfg(test)]
mod outer {
    mod inner {
        pub fn deeply_nested_test_code() -> Result<(), String> {
            let _total: f32 = [1.0f32].iter().sum();
            Ok(())
        }
    }
}

#[cfg(not(test))]
pub mod shipped {
    pub fn not_a_test_region(v: &[f32]) -> f32 {
        v.iter().sum() //~ det.float_accum
    }
}
