type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- printing *)

(* Strings are arbitrary byte sequences but emitted lines must be pure
   ASCII.  Valid UTF-8 sequences become \uXXXX escapes (surrogate pairs
   above the BMP); a byte that is not part of a valid sequence is
   escaped as the lone low surrogate \udcXX ("surrogateescape"), which
   the parser folds back to the raw byte — emission is lossless for any
   byte string. *)

(* [utf8_decode s i] returns [Some (code, len)] when [s] carries a valid
   UTF-8 sequence at byte [i]: no overlong forms, no surrogate code
   points, nothing above U+10FFFF. *)
let utf8_decode s i =
  let n = String.length s in
  let byte k = Char.code s.[k] in
  let cont k = k < n && byte k land 0xC0 = 0x80 in
  let b0 = byte i in
  if b0 < 0xC2 then None
  else if b0 <= 0xDF then
    if cont (i + 1) then Some (((b0 land 0x1F) lsl 6) lor (byte (i + 1) land 0x3F), 2)
    else None
  else if b0 <= 0xEF then
    if cont (i + 1) && cont (i + 2) then begin
      let code =
        ((b0 land 0x0F) lsl 12)
        lor ((byte (i + 1) land 0x3F) lsl 6)
        lor (byte (i + 2) land 0x3F)
      in
      if code >= 0x800 && not (code >= 0xD800 && code <= 0xDFFF) then Some (code, 3)
      else None
    end
    else None
  else if b0 <= 0xF4 then
    if cont (i + 1) && cont (i + 2) && cont (i + 3) then begin
      let code =
        ((b0 land 0x07) lsl 18)
        lor ((byte (i + 1) land 0x3F) lsl 12)
        lor ((byte (i + 2) land 0x3F) lsl 6)
        lor (byte (i + 3) land 0x3F)
      in
      if code >= 0x10000 && code <= 0x10FFFF then Some (code, 4) else None
    end
    else None
  else None

let add_uescape buf code =
  if code < 0x10000 then Buffer.add_string buf (Printf.sprintf "\\u%04x" code)
  else begin
    let c = code - 0x10000 in
    Buffer.add_string buf
      (Printf.sprintf "\\u%04x\\u%04x" (0xD800 lor (c lsr 10)) (0xDC00 lor (c land 0x3FF)))
  end

let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | '"' ->
      Buffer.add_string buf "\\\"";
      incr i
    | '\\' ->
      Buffer.add_string buf "\\\\";
      incr i
    | '\n' ->
      Buffer.add_string buf "\\n";
      incr i
    | '\r' ->
      Buffer.add_string buf "\\r";
      incr i
    | '\t' ->
      Buffer.add_string buf "\\t";
      incr i
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
      incr i
    | c when Char.code c < 0x80 ->
      Buffer.add_char buf c;
      incr i
    | c -> (
      match utf8_decode s !i with
      | Some (code, len) ->
        add_uescape buf code;
        i := !i + len
      | None ->
        (* invalid byte: lone low surrogate carrying the byte value *)
        add_uescape buf (0xDC00 lor Char.code c);
        incr i))
  done;
  Buffer.add_char buf '"'

(* JSON has no NaN/Inf literal; non-finite floats degrade to null so every
   emitted line stays parseable by any consumer. *)
let add_float buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.17g" x in
    Buffer.add_string buf s;
    (* keep floats round-trippable as floats: 1. prints as "1", add ".0" *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> add_float buf x
  | String s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        add buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 4096 in
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let rec pretty indent j =
    (* one child per line, two spaces deeper than the brackets *)
    let block opening closing children =
      let inner = indent ^ "  " in
      Buffer.add_char buf opening;
      List.iteri
        (fun i child ->
          Buffer.add_string buf (if i > 0 then ",\n" else "\n");
          Buffer.add_string buf inner;
          child inner)
        children;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      Buffer.add_char buf closing
    in
    match j with
    | List xs when not (List.for_all scalar xs) ->
      block '[' ']' (List.map (fun x inner -> pretty inner x) xs)
    | Obj kvs when not (List.for_all (fun (_, v) -> scalar v) kvs) ->
      block '{' '}'
        (List.map
           (fun (k, v) inner ->
             escape buf k;
             Buffer.add_string buf ": ";
             pretty inner v)
           kvs)
    | j -> add buf j
  in
  pretty "" j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* -------------------------------------------------------------- parsing *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then fail c "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> begin
      if c.pos >= String.length c.src then fail c "unterminated escape";
      let e = c.src.[c.pos] in
      c.pos <- c.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some v -> v
          | None -> fail c "bad \\u escape"
        in
        (* a high surrogate followed by \uDCxx..\uDFxx is an astral
           pair; combine before encoding *)
        let code =
          if
            code >= 0xD800 && code <= 0xDBFF
            && c.pos + 6 <= String.length c.src
            && c.src.[c.pos] = '\\'
            && c.src.[c.pos + 1] = 'u'
          then begin
            match int_of_string_opt ("0x" ^ String.sub c.src (c.pos + 2) 4) with
            | Some low when low >= 0xDC00 && low <= 0xDFFF ->
              c.pos <- c.pos + 6;
              0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            | _ -> code
          end
          else code
        in
        (* lone low surrogates \udc80..\udcff are surrogateescape-encoded
           raw bytes (see [escape]); everything else is UTF-8-encoded
           (lone surrogates outside that band fall through to WTF-8
           rather than failing the whole line) *)
        if code >= 0xDC80 && code <= 0xDCFF then Buffer.add_char buf (Char.chr (code land 0xFF))
        else add_utf8 buf code
      | _ -> fail c "bad escape");
      go ()
    end
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with Some f -> Float f | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' ->
    c.pos <- c.pos + 1;
    String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error (Printf.sprintf "trailing input at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------ accessors *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
